package engine

import (
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/sim"
)

// TestMultiWorkerAdversityBatchedDeterminism is the suite's race
// harness: the full hostile-scenario mix (partitions, loss, geo skew,
// crashes, decision races) with witness-side decision batching on,
// executed with an explicit multi-worker pool. Under `go test -race`
// (the CI configuration) this drives internal/engine's worker
// scheduling and internal/batch's coordinator concurrently in one run
// — the two packages whose multi-goroutine paths the determinism
// contract most depends on — and then proves the scheduling still
// cannot leak: a serialized run of the same seed must produce
// byte-identical aggregates.
//
// Workers is pinned to 4 (not left at the GOMAXPROCS default) so the
// concurrent interleaving exists even on constrained CI runners.
func TestMultiWorkerAdversityBatchedDeterminism(t *testing.T) {
	wl := adversityWorkload(24)
	wl.BatchWindow = 2 * sim.Minute
	cfg := Config{Seed: 7, Shards: 4, Workers: 4, Workload: wl}
	a := run(t, cfg)
	cfg.Workers = 1
	b := run(t, cfg)

	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("batched adversity aggregates differ across worker counts:\n%s\n----\n%s", aj, bj)
	}

	// The run must actually exercise what it claims to: every AC2T
	// graded without violations, adversity biting, batches flowing.
	if a.Graded != 24 {
		t.Fatalf("graded %d/24", a.Graded)
	}
	if a.Violations != 0 {
		t.Fatalf("%d atomicity violations under batched adversity", a.Violations)
	}
	if a.MsgsDropped == 0 {
		t.Fatal("no messages dropped — the lossy scenario never bit")
	}
	if a.BatchesPublished == 0 || a.BatchDecisions == 0 {
		t.Fatalf("batching idle: %d batches, %d decisions", a.BatchesPublished, a.BatchDecisions)
	}
	if a.WitnessDecisionTxs != 0 {
		t.Fatalf("batched mode posted %d per-AC2T decision txs", a.WitnessDecisionTxs)
	}
}

// TestProgressWhileRunning reads Progress from another goroutine while
// four workers grade: the graded count is the one value shards share as
// they run. It never goes backwards or past the total, and after Run it
// equals the graded count of the aggregate.
func TestProgressWhileRunning(t *testing.T) {
	e, err := New(Config{Seed: 3, Shards: 4, Workers: 4, Workload: testWorkload(16)})
	if err != nil {
		t.Fatal(err)
	}
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			g, total := e.Progress()
			if g < last || g > total {
				t.Errorf("progress went from %d to %d of %d", last, g, total)
			}
			last = g
			runtime.Gosched()
		}
	}()
	agg, err := e.Run()
	close(stop)
	<-stopped
	if err != nil {
		t.Fatal(err)
	}
	if g, total := e.Progress(); g != int64(agg.Graded) || total != 16 {
		t.Fatalf("Progress() = %d/%d after a run that graded %d of 16", g, total, agg.Graded)
	}
}
