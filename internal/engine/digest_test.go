package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
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
	hostile := Mix{Commit: 4, Abort: 1, Crash: 1, Race: 1, Partition: 2, Lossy: 2, Geo: 2}
	adverse := Mix{Commit: 4, Abort: 1, Crash: 1, Race: 1, Partition: 2, Geo: 2}
	baseline := Mix{Commit: 5, Abort: 2, Crash: 2, Race: 1}
	cases := []struct {
		name        string
		shards, txs int
		edit        func(*Workload)
	}{
		{"ac3wn-default", 4, 60, func(*Workload) {}},
		{"ac3wn-hostile", 4, 60, func(wl *Workload) { wl.Mix = hostile }},
		{"ac3wn-adverse", 4, 60, func(wl *Workload) { wl.Mix = adverse }},
		{"ac3wn-batch120", 4, 60, func(wl *Workload) { wl.BatchWindow = 120 * sim.Second }},
		{"ac3wn-batch180", 4, 60, func(wl *Workload) { wl.BatchWindow = 180 * sim.Second }},
		// One world long enough for history retirement to advance.
		{"ac3wn-deep", 1, 420, func(*Workload) {}},
		{"ac3tw-5221-t30", 4, 60, func(wl *Workload) {
			wl.Protocol, wl.Mix, wl.TxTimeout = ProtoAC3TW, baseline, 30*sim.Minute
		}},
		{"htlc-5221-t30", 4, 60, func(wl *Workload) {
			wl.Protocol, wl.Mix, wl.TxTimeout = ProtoHTLC, baseline, 30*sim.Minute
		}},
	}

	got := make(map[string]seedDigest)
	for _, tc := range cases {
		for _, seed := range []uint64{42, 7, 43} {
			wl := DefaultWorkload()
			wl.Txs = tc.txs
			tc.edit(&wl)
			agg := run(t, Config{Seed: seed, Shards: tc.shards, Workload: wl, Trace: true})
			if tc.shards == 1 && agg.BlocksRetired == 0 {
				t.Errorf("%s/seed%d: no block retired; the deep shape no longer reaches the retire horizon", tc.name, seed)
			}
			aj, err := json.MarshalIndent(agg, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			var nd bytes.Buffer
			if err := trace.WriteNDJSON(&nd, agg.Trace); err != nil {
				t.Fatal(err)
			}
			as := sha256.Sum256(append(aj, '\n'))
			ts := sha256.Sum256(nd.Bytes())
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
