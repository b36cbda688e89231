package bench

import (
	"runtime"
	"sync/atomic"
	"time"
)

// MemReport summarizes a sampled window of process memory use. All
// numbers come from runtime.ReadMemStats and are therefore
// machine/GC-schedule dependent: they belong in wall-clock diagnostics
// (stderr, bench tables, BENCH artifacts), never in the engine's
// byte-compared JSON aggregates.
type MemReport struct {
	// PeakHeapBytes is the high-water HeapAlloc observed — live heap
	// at the worst sampled moment.
	PeakHeapBytes uint64
	// PeakSysBytes is the high-water Sys observed — total memory
	// obtained from the OS, the closest runtime-visible proxy for peak
	// RSS (the Go runtime returns memory to the OS lazily, so Sys is a
	// stable upper bound).
	PeakSysBytes uint64
	// Mallocs counts heap allocations performed during the window and
	// AllocBytes their total size (the TotalAlloc delta).
	Mallocs    uint64
	AllocBytes uint64
}

// MemSampler polls runtime.ReadMemStats on a background goroutine and
// keeps high-water marks. GC can collect between samples, so the peaks
// are lower bounds on the true instantaneous maxima — good enough to
// grade "memory flat in tx count" across 10k→100k→1M rungs.
type MemSampler struct {
	peakHeap    atomic.Uint64
	peakSys     atomic.Uint64
	baseMallocs uint64
	baseBytes   uint64
	stop        chan struct{}
	done        chan struct{}
}

// StartMemSampler begins sampling every 50ms until Stop.
func StartMemSampler() *MemSampler {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := &MemSampler{
		baseMallocs: m.Mallocs,
		baseBytes:   m.TotalAlloc,
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
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
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				s.observe(&m)
			}
		}
	}()
	return s
}

func (s *MemSampler) observe(m *runtime.MemStats) {
	if m.HeapAlloc > s.peakHeap.Load() {
		s.peakHeap.Store(m.HeapAlloc)
	}
	if m.Sys > s.peakSys.Load() {
		s.peakSys.Store(m.Sys)
	}
}

// Stop takes a final sample and returns the window's report.
func (s *MemSampler) Stop() MemReport {
	close(s.stop)
	<-s.done
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.observe(&m)
	return MemReport{
		PeakHeapBytes: s.peakHeap.Load(),
		PeakSysBytes:  s.peakSys.Load(),
		Mallocs:       m.Mallocs - s.baseMallocs,
		AllocBytes:    m.TotalAlloc - s.baseBytes,
	}
}
