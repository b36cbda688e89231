package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/engine"
)

// rep is what one engine.New + Run repetition cost the host, and the
// aggregate it produced.
type rep struct {
	WallNs     float64
	CPUNs      float64
	Mallocs    float64
	AllocBytes float64
	GCCycles   float64
	GCPauseNs  float64
	Agg        *engine.Aggregate
	AggJSON    []byte
}

// cpuTime is the process's user+system CPU time.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// runRep executes one repetition. The heap is collected first so every
// repetition starts from the same state; the collection is outside the
// timed window.
func runRep(cfg engine.Config) (rep, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, err := cpuTime()
	if err != nil {
		return rep{}, err
	}
	t0 := time.Now()
	eng, err := engine.New(cfg)
	if err != nil {
		return rep{}, err
	}
	agg, err := eng.Run()
	wall := time.Since(t0)
	if err != nil {
		return rep{}, err
	}
	cpu1, err := cpuTime()
	if err != nil {
		return rep{}, err
	}
	runtime.ReadMemStats(&m1)
	// The trace rides outside the JSON encoding (json:"-"), so a traced
	// repetition encodes exactly like an untraced one.
	enc, err := json.Marshal(agg)
	if err != nil {
		return rep{}, err
	}
	return rep{
		WallNs:     float64(wall),
		CPUNs:      float64(cpu1 - cpu0),
		Mallocs:    float64(m1.Mallocs - m0.Mallocs),
		AllocBytes: float64(m1.TotalAlloc - m0.TotalAlloc),
		GCCycles:   float64(m1.NumGC - m0.NumGC),
		GCPauseNs:  float64(m1.PauseTotalNs - m0.PauseTotalNs),
		Agg:        agg,
		AggJSON:    enc,
	}, nil
}

// timedReps runs repetitions of cfg until at least minReps are done
// and another one would overshoot the time budget by more than it
// undershoots now. Machine speed is sampled before the first
// repetition and after each one; the run's slowdown is taken over all
// samples. progress is told about each repetition.
func timedReps(cfg engine.Config, minReps int, budget time.Duration, progress func(i int, r rep)) (reps []rep, slow float64, err error) {
	start := time.Now()
	kernel := sampleKernel(nil)
	for {
		r, err := runRep(cfg)
		if err != nil {
			return nil, 0, err
		}
		kernel = sampleKernel(kernel)
		reps = append(reps, r)
		progress(len(reps), r)
		elapsed := time.Since(start)
		perRep := elapsed / time.Duration(len(reps))
		if len(reps) >= minReps && elapsed+perRep/2 >= budget {
			return reps, slowdown(kernel), nil
		}
	}
}

// checkReps applies the hard checks: the repetitions of one
// configuration produced byte-identical aggregates, every AC2T was
// graded, and the outcome counts add up. Outcome counts themselves
// (stuck, violations) are results, reported and never failed here.
func checkReps(reps []rep, txs int) error {
	for i, r := range reps {
		if !bytes.Equal(r.AggJSON, reps[0].AggJSON) {
			return fmt.Errorf("repetition %d produced a different aggregate than repetition 1 (same configuration, same seed)", i+1)
		}
	}
	a := reps[0].Agg
	if a.Graded != txs {
		return fmt.Errorf("graded %d of %d AC2Ts", a.Graded, txs)
	}
	if a.Commits+a.Aborts+a.Stuck != a.Graded {
		return fmt.Errorf("commits %d + aborts %d + stuck %d != graded %d", a.Commits, a.Aborts, a.Stuck, a.Graded)
	}
	return nil
}

// column extracts one per-repetition quantity.
func column(reps []rep, f func(rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// metricValue is one reported number. Host metrics carry the number of
// repetitions and their extremes; simulated metrics carry the number of
// AC2Ts behind them.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Kind  string  `json:"kind,omitempty"`
	N     int     `json:"n,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
}

// hostMetric reports the median of a per-repetition quantity, divided
// by scale.
func hostMetric(xs []float64, scale float64) metricValue {
	lo, hi := minMax(xs)
	return metricValue{Value: median(xs) / scale, N: len(xs), Min: lo / scale, Max: hi / scale}
}

// endToEndMetrics derives the gated metrics from the timed
// repetitions, the raw set-up samples and the run's slowdown. The
// three host times are divided by the slowdown, which puts them at
// reference machine speed (calibrate.go).
func endToEndMetrics(reps []rep, setups []float64, slow float64) map[string]metricValue {
	a := reps[0].Agg
	graded := float64(a.Graded)
	perAC2T := func(f func(rep) float64, scale float64) metricValue {
		return hostMetric(column(reps, f), scale*graded)
	}
	simMetric := func(v float64) metricValue { return metricValue{Value: v, N: a.Graded} }
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	txs := float64(a.Txs)
	notSettled := float64(a.Stuck + a.Violations + (a.Txs - a.Graded))
	out := map[string]metricValue{
		"setup_s":              hostMetric(setups, slow),
		"wall_us_per_ac2t":     perAC2T(func(r rep) float64 { return r.WallNs }, 1e3*slow),
		"cpu_us_per_ac2t":      perAC2T(func(r rep) float64 { return r.CPUNs }, 1e3*slow),
		"allocs_per_ac2t":      perAC2T(func(r rep) float64 { return r.Mallocs }, 1),
		"alloc_bytes_per_ac2t": perAC2T(func(r rep) float64 { return r.AllocBytes }, 1),
		// MemStats.Sys never shrinks, so its value after the last
		// repetition is the run's high-water mark.
		"peak_sys_mib":            {Value: float64(ms.Sys) / (1 << 20), N: 1},
		"sim_latency_p50_ms":      simMetric(float64(a.LatencyP50Ms)),
		"sim_latency_p99_ms":      simMetric(float64(a.LatencyP99Ms)),
		"sim_tps":                 simMetric(a.ThroughputTPSVirtual),
		"contract_ops_per_commit": simMetric(float64(a.Deploys+a.Calls+a.BatchesPublished) / float64(max(a.Commits, 1))),
		"sim_events_per_ac2t":     simMetric(a.SimEventsPerTx),
		"settled_share":           simMetric(1 - notSettled/txs),
		"atomic_share":            simMetric(1 - float64(a.Violations)/txs),
	}
	for _, d := range endToEnd {
		v := out[d.Name]
		v.Unit, v.Kind = d.Unit, d.Kind
		out[d.Name] = v
	}
	return out
}
