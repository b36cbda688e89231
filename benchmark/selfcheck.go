package main

import (
	"fmt"
	"os"
	"regexp"
	"slices"
)

// Limits of the benchmark contract the self-check enforces.
const (
	maxEndToEnd = 16
	maxPerLayer = 128
)

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// selfcheck runs every workload at 1/20 size — the gated run twice and
// the traced run once — and validates what a full run promises: the
// metric tables respect the contract's limits, every promised metric is
// reported with its unit, simulated metrics repeat exactly, and host
// metrics are present and positive (runs this short are too noisy to
// bound). It is the command CI can adopt.
func selfcheck(seed uint64) error {
	if err := checkMetricTables(); err != nil {
		return err
	}
	out, err := os.MkdirTemp("", "benchmark-selfcheck-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(out)

	for _, w := range workloads {
		txs := max(w.Txs/20, w.Shards)
		p := plan{txs: txs, warmupTxs: txs}
		var runs [2]result
		for i := range runs {
			if runs[i], err = runEndToEnd(w, seed, p); err != nil {
				return err
			}
			if err := checkResult(runs[i], endToEnd); err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
		}
		for _, d := range endToEnd {
			a, b := runs[0].Metrics[d.Name], runs[1].Metrics[d.Name]
			if d.Kind == "sim" && a.Value != b.Value {
				return fmt.Errorf("%s: simulated metric %s differs between two runs of seed %d: %v vs %v", w.Name, d.Name, seed, a.Value, b.Value)
			}
			if a.Value <= 0 {
				return fmt.Errorf("%s: %s is %v, want a positive number", w.Name, d.Name, a.Value)
			}
		}
		layers, err := runLayers(w, seed, p, out)
		if err != nil {
			return err
		}
		if err := checkResult(layers, perLayer); err != nil {
			return fmt.Errorf("%s traced: %w", w.Name, err)
		}
	}
	logf("selfcheck: %d workloads, %d end-to-end and %d per-layer metrics: ok", len(workloads), len(endToEnd), len(perLayer))
	return nil
}

// checkMetricTables validates names, counts and the presence of
// setup_s.
func checkMetricTables() error {
	if len(endToEnd) > maxEndToEnd || len(perLayer) > maxPerLayer {
		return fmt.Errorf("%d end-to-end and %d per-layer metrics exceed the limits %d and %d", len(endToEnd), len(perLayer), maxEndToEnd, maxPerLayer)
	}
	seen := make(map[string]bool)
	for _, d := range slices.Concat(endToEnd, perLayer) {
		if !metricNameRE.MatchString(d.Name) {
			return fmt.Errorf("metric name %q is outside [A-Za-z0-9_.-]{1,64}", d.Name)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric name %q is used twice", d.Name)
		}
		seen[d.Name] = true
	}
	if !seen["setup_s"] {
		return fmt.Errorf("setup_s is not an end-to-end metric")
	}
	return nil
}

// checkResult validates one run's result against the metric table it
// promises to report.
func checkResult(res result, defs []metricDef) error {
	if !res.Correct {
		return fmt.Errorf("a hard check failed")
	}
	if res.Attempted < 1 || res.Failed != 0 {
		return fmt.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		return fmt.Errorf("%d metrics reported, %d promised", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s is missing", d.Name)
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
		}
	}
	return nil
}
