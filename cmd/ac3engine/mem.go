package main

import (
	"runtime"
	"time"
)

// memSampler polls runtime.ReadMemStats on a background goroutine and
// keeps high-water marks over the window between startMemSampler and
// Stop. All numbers are machine/GC-schedule dependent: they belong with
// the wall-clock diagnostics on stderr, never in the byte-compared JSON
// aggregates. GC can collect between samples, so the peaks are lower
// bounds on the true instantaneous maxima — good enough to grade
// "memory flat in tx count" across 10k→100k→1M rungs.
type memSampler struct {
	// PeakHeapBytes is the high-water HeapAlloc observed — live heap
	// at the worst sampled moment.
	PeakHeapBytes uint64
	// PeakSysBytes is the high-water Sys observed — total memory
	// obtained from the OS, the closest runtime-visible proxy for peak
	// RSS (the Go runtime returns memory to the OS lazily, so Sys is a
	// stable upper bound).
	PeakSysBytes uint64
	// Mallocs counts heap allocations performed during the window and
	// AllocBytes their total size (the TotalAlloc delta). Until Stop
	// they hold the counters' values at the start.
	Mallocs, AllocBytes uint64

	stop, done chan struct{}
}

// startMemSampler begins sampling every 50ms until Stop.
func startMemSampler() *memSampler {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := &memSampler{
		Mallocs:    m.Mallocs,
		AllocBytes: m.TotalAlloc,
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	s.observe(&m)
	go func() {
		defer close(s.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				runtime.ReadMemStats(&m)
				s.observe(&m)
			}
		}
	}()
	return s
}

func (s *memSampler) observe(m *runtime.MemStats) {
	s.PeakHeapBytes = max(s.PeakHeapBytes, m.HeapAlloc)
	s.PeakSysBytes = max(s.PeakSysBytes, m.Sys)
}

// Stop ends the sampling goroutine and takes a final sample; the fields
// then report the window. Only the goroutine touches s between start
// and Stop, and done orders its last write before the reads here.
func (s *memSampler) Stop() {
	close(s.stop)
	<-s.done
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.observe(&m)
	s.Mallocs, s.AllocBytes = m.Mallocs-s.Mallocs, m.TotalAlloc-s.AllocBytes
}
