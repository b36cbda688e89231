package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// seedDigest is one pinned run: the SHA-256 of the JSON aggregate as
// ac3engine prints it (indented, trailing newline) and of the NDJSON
// trace.
type seedDigest struct {
	Aggregate string `json:"aggregate_sha256"`
	Trace     string `json:"trace_sha256"`
}

// artefacts renders a run's two byte-compared outputs: the JSON
// aggregate as ac3engine prints it and the NDJSON trace.
func artefacts(t *testing.T, agg *Aggregate) (aggregate, ndjson []byte) {
	t.Helper()
	aj, err := json.MarshalIndent(agg, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var nd bytes.Buffer
	if err := trace.WriteNDJSON(&nd, agg.Trace); err != nil {
		t.Fatal(err)
	}
	return append(aj, '\n'), nd.Bytes()
}

// TestSeedDigests is the refactoring licence in test form: a small
// matrix of seeds, protocols and mixes whose aggregate and trace bytes
// were recorded at the commit before the protocols became thin
// instances over the runtime (ADR-013), extended — again at the
// parent's behaviour — with the benchmark's other shapes (partition +
// geo without loss, the 180 s batch window, one long-lived world that
// retires history) and a third seed before wake-ups were gated on
// wait-sets (ADR-014). A change that keeps behaviour seed-identical
// passes unmodified; one that means to change it refreshes the file
// with -update-golden and explains the diff.
func TestSeedDigests(t *testing.T) {
	adverse := Mix{Commit: 4, Abort: 1, Crash: 1, Race: 1, Partition: 2, Geo: 2}
	// The ac3tw and htlc rows keep the hazard mix and deadline at the
	// default 20 s arrivals, which is what their digests pin.
	baseline := Mix{Commit: 5, Abort: 2, Crash: 2, Race: 1}
	cases := []struct {
		name, workload string
		shards, txs    int
		edit           func(*Workload)
	}{
		{"ac3wn-default", "default", 4, 60, func(*Workload) {}},
		{"ac3wn-hostile", "hostile", 4, 60, func(*Workload) {}},
		{"ac3wn-adverse", "default", 4, 60, func(wl *Workload) { wl.Mix = adverse }},
		{"ac3wn-batch120", "default", 4, 60, func(wl *Workload) { wl.BatchWindow = 120 * sim.Second }},
		{"ac3wn-batch180", "batched", 4, 60, func(*Workload) {}},
		// One world long enough for history retirement to advance: 450
		// is the least size that retires at all three seeds (420 was,
		// while the shard graded 20 s after the tip settle).
		{"ac3wn-deep", "default", 1, 450, func(*Workload) {}},
		{"ac3tw-5221-t30", "default", 4, 60, func(wl *Workload) {
			wl.Protocol, wl.Mix, wl.TxTimeout = ProtoAC3TW, baseline, 30*sim.Minute
		}},
		{"htlc-5221-t30", "default", 4, 60, func(wl *Workload) {
			wl.Protocol, wl.Mix, wl.TxTimeout = ProtoHTLC, baseline, 30*sim.Minute
		}},
	}

	got := make(map[string]seedDigest)
	for _, tc := range cases {
		for _, seed := range []uint64{42, 7, 43} {
			wl := named(t, tc.workload, tc.txs)
			tc.edit(&wl)
			agg := run(t, Config{Seed: seed, Shards: tc.shards, Workload: wl, Trace: true})
			if tc.shards == 1 && agg.BlocksRetired == 0 {
				t.Errorf("%s/seed%d: no block retired; the deep shape no longer reaches the retire horizon", tc.name, seed)
			}
			aj, nd := artefacts(t, agg)
			as := sha256.Sum256(aj)
			ts := sha256.Sum256(nd)
			got[fmt.Sprintf("%s/seed%d", tc.name, seed)] = seedDigest{
				Aggregate: hex.EncodeToString(as[:]),
				Trace:     hex.EncodeToString(ts[:]),
			}
		}
	}

	golden := filepath.Join("testdata", "seed_digests.json")
	if *updateGolden {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (run with -update-golden to create): %v", err)
	}
	want := make(map[string]seedDigest)
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file pins %d runs, the matrix has %d", len(want), len(got))
	}
	for name, g := range got {
		if w := want[name]; g != w {
			t.Errorf("%s drifted from the pinned bytes:\n got %+v\nwant %+v", name, g, w)
		}
	}
}

// TestSigCheckersLeaveNoTrace (ADR-021): the cores a run's workers leave
// idle write and check signatures ahead of need — GOMAXPROCS − workers
// checkers, none when there is no core to spare — and nothing the run
// reports can tell. For each protocol (AC3WN on the hostile mix, with its
// reorgs, re-announced and resubmitted transactions, and with a 180 s
// batch window; AC3TW; HTLC) the aggregate and the trace are the same
// bytes at GOMAXPROCS 1, 2 and 4 with one and two workers. Every
// transaction signature is written and verified once: what the checkers
// did ahead plus what the worlds did inline is at least what the run
// without a checker did — every transaction a block builder asked about —
// and at most what the clients signed (a checker also gets to the few a
// world submits and never tries). Every graph signature is written once,
// ahead or when ms(D) is signed, and with a checker the constructors and
// Trent read its verdict. How the sums split is the host scheduler's
// business and stays out of both artefacts.
func TestSigCheckersLeaveNoTrace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	baseline := Mix{Commit: 5, Abort: 2, Crash: 2, Race: 1}
	for _, tc := range []struct {
		name, workload string
		edit           func(*Workload)
	}{
		{"ac3wn-hostile", "hostile", func(*Workload) {}},
		{"ac3wn-batch180", "batched", func(*Workload) {}},
		{"ac3tw", "default", func(wl *Workload) { wl.Protocol, wl.Mix, wl.TxTimeout = ProtoAC3TW, baseline, 30*sim.Minute }},
		{"htlc", "default", func(wl *Workload) { wl.Protocol, wl.Mix, wl.TxTimeout = ProtoHTLC, baseline, 30*sim.Minute }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wl := named(t, tc.workload, 60)
			tc.edit(&wl)
			signsGraph := protocolOf(wl.Protocol).signsGraph
			var wantAgg, wantTrace []byte
			var verified uint64
			for _, procs := range []int{1, 2, 4} {
				for _, workers := range []int{1, 2} {
					runtime.GOMAXPROCS(procs)
					agg := run(t, Config{Seed: 42, Shards: 4, Workers: workers, Workload: wl, Trace: true})
					aj, nd := artefacts(t, agg)
					w, checkers := agg.Work, max(procs-workers, 0)
					at := fmt.Sprintf("GOMAXPROCS %d, %d workers", procs, workers)
					t.Logf("%s: %+v", at, w)
					if w.SigCheckers != checkers {
						t.Errorf("%s: %d checkers, want %d", at, w.SigCheckers, checkers)
					}
					if checkers == 0 && w.SigAhead+w.GraphAhead+w.KeysAhead+w.SigWaited+w.MultisigReady != 0 {
						t.Errorf("%s: no checker, yet work ahead of need, waits or presigned verdicts: %+v", at, w)
					}
					if w.GraphAhead+w.GraphInline != w.GraphSigs || (checkers > 0 && signsGraph) != (w.MultisigReady > 0) {
						t.Errorf("%s: %d graph signatures written ahead + %d inline of %d signed, %d presigned verdicts read", at, w.GraphAhead, w.GraphInline, w.GraphSigs, w.MultisigReady)
					}
					if wantAgg == nil {
						wantAgg, wantTrace, verified = aj, nd, w.SigInline
						continue
					}
					if !bytes.Equal(aj, wantAgg) || !bytes.Equal(nd, wantTrace) {
						t.Errorf("%s: aggregate or trace differs from the run without a checker", at)
					}
					if got := w.SigAhead + w.SigInline; got < verified || got > w.DeploySigs+w.CallSigs {
						t.Errorf("%s: %d ahead + %d inline, want between the %d the run without a checker verified and the %d the clients signed",
							at, w.SigAhead, w.SigInline, verified, w.DeploySigs+w.CallSigs)
					}
				}
			}
			if verified == 0 {
				t.Fatal("fixture: nothing was verified")
			}
		})
	}
}

// TestUnsettledShardRunsAgainStrict (ADR-021's amendment): a shard whose
// settle finds that block building took an invalid own signature as valid
// is thrown away and run again with no checker. What the run reports —
// aggregate, trace and every shard's counters, the ones that say who
// computed which signature included — is then what the run that never had
// a checker reports, and progress counts each AC2T once.
func TestUnsettledShardRunsAgainStrict(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	wl := named(t, "hostile", 40)
	strict := run(t, Config{Seed: 42, Shards: 2, Workers: 2, Workload: wl, Trace: true}) // no core to spare
	e, err := New(Config{Seed: 42, Shards: 2, Workers: 1, Workload: wl, Trace: true, unsettled: true})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if agg.Work.SigCheckers != 1 || strict.Work.SigCheckers != 0 {
		t.Fatalf("fixture: %d and %d checkers, want 1 and 0", agg.Work.SigCheckers, strict.Work.SigCheckers)
	}
	aj, nd := artefacts(t, agg)
	sj, snd := artefacts(t, strict)
	if !bytes.Equal(aj, sj) || !bytes.Equal(nd, snd) {
		t.Error("aggregate or trace differs from the run without a checker")
	}
	for i := range agg.PerShard {
		if w, want := agg.PerShard[i].Work, strict.PerShard[i].Work; !reflect.DeepEqual(w, want) {
			t.Errorf("shard %d: counters %+v, want the strict run's %+v", i, w, want)
		}
	}
	if g, total := e.Progress(); g != int64(agg.Graded) || g != total {
		t.Errorf("progress %d/%d after grading %d", g, total, agg.Graded)
	}
}
