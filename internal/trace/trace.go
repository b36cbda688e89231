// Package trace is the deterministic cross-layer observability layer:
// a virtual-time span/event recorder threaded through the shard worlds
// (sim → p2p → chain → miner → protocol → engine) that explains
// *where* an AC2T's end-to-end latency goes — lock confirmation vs
// witness decision vs redeem settlement — instead of reporting one
// opaque number per transaction.
//
// Determinism rules (the engine's byte-identical-aggregates guarantee
// extends to traces):
//
//   - Records carry virtual timestamps and per-shard sequence numbers
//     only — never a wall clock.
//   - Every record is emitted on its shard's single goroutine, so the
//     per-shard stream is totally ordered by construction; the engine
//     merges streams in shard order after the workers join.
//   - Record fields marshal through fixed-order structs (attributes
//     are an ordered slice, not a map), so NDJSON bytes are identical
//     across runs and worker counts.
//
// Memory stays flat at any transaction count: each shard records into
// a bounded ring buffer (oldest records evicted, eviction counted), and
// the per-phase latency statistics the aggregates report are folded
// into fixed-size histograms independently of the ring, so eviction
// never skews the numbers.
//
// Two export formats: NDJSON (one record per line, streamable, the
// diffable format CI compares across worker counts) and Chrome
// trace_event JSON (loadable in chrome://tracing or Perfetto, one
// process per shard with one track per transaction and per chain).
package trace

// The per-AC2T phase span taxonomy, in causal order. Spans are derived
// from the protocol runtime's phase marks plus the engine's own
// settlement observation:
//
//	setup:         tx admitted → first contract deploy submitted
//	lock:          first deploy submitted → all deploys confirmed
//	decision_wait: all deploys confirmed → decision triggered
//	decision:      decision triggered → decision confirmed/stable
//	settle:        decision confirmed → all contracts settled at the tip
//	bury:          settled at the tip → graded (settlement d deep)
//
// A phase whose boundary was never reached (an abort that never got
// every deploy confirmed, a stuck transaction) is simply absent — the
// per-phase table counts only completed phases.
const (
	PhaseSetup        = "setup"
	PhaseLock         = "lock"
	PhaseDecisionWait = "decision_wait"
	PhaseDecision     = "decision"
	PhaseSettle       = "settle"
	PhaseBury         = "bury"
)

// Phases lists the span taxonomy in canonical (causal) order.
//
//ac3:globalstate canonical phase order; written once here, read-only (aggregate tables iterate it instead of map keys)
var Phases = []string{PhaseSetup, PhaseLock, PhaseDecisionWait, PhaseDecision, PhaseSettle, PhaseBury}

// Kind discriminates records.
type Kind string

// The two record kinds: a span covers [T, T+Dur]; an instant is a
// point event.
const (
	KindSpan    Kind = "span"
	KindInstant Kind = "instant"
)

// Attr is one ordered integer annotation. A slice of Attrs (not a
// map) keeps JSON marshaling byte-deterministic.
type Attr struct {
	K string `json:"k"`
	V int64  `json:"v"`
}

// Record is one trace entry. Field order is the NDJSON byte layout —
// do not reorder casually; CI diffs these bytes across worker counts.
type Record struct {
	Shard int    `json:"shard"`
	Seq   uint64 `json:"seq"`
	Kind  Kind   `json:"kind"`
	// Track names the timeline the record renders on: "tx:<n>" for
	// per-AC2T records, "chain:<id>" for per-chain summaries, "shard"
	// for shard-level records.
	Track string `json:"track"`
	Name  string `json:"name"`
	// T is the virtual start time in ms; Dur the span length (0 for
	// instants).
	T   int64 `json:"t_ms"`
	Dur int64 `json:"dur_ms,omitempty"`
	// Tx is the AC2T index within the shard (-1 for shard/chain-level
	// records).
	Tx       int    `json:"tx"`
	Scenario string `json:"scenario,omitempty"`
	Outcome  string `json:"outcome,omitempty"`
	Attrs    []Attr `json:"attrs,omitempty"`
}

// DefaultRingCap is the per-shard ring capacity when the caller does
// not choose one: large enough to hold every record of a ~1,000-tx
// per-shard run, small enough that memory stays flat at any scale.
const DefaultRingCap = 65536

// Recorder collects one shard's records into a bounded ring buffer.
// All methods are nil-safe: a nil *Recorder is the disabled tracer, so
// instrumentation points call it unconditionally and cost one nil
// check when tracing is off.
//
// A Recorder is not safe for concurrent use; the engine gives each
// shard its own, which runs on the shard's single goroutine.
type Recorder struct {
	shard   int
	seq     uint64
	ring    []Record
	head    int // index of the oldest record
	n       int // records currently held
	dropped uint64
}

// NewRecorder prepares a recorder for one shard. cap <= 0 selects
// DefaultRingCap.
func NewRecorder(shard, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRingCap
	}
	return &Recorder{shard: shard, ring: make([]Record, 0, capacity)}
}

// Enabled reports whether records are being collected.
func (r *Recorder) Enabled() bool { return r != nil }

// Emit stamps the record with the shard index and the next per-shard
// sequence number, then appends it, evicting the oldest record when
// the ring is full. No-op on a nil recorder.
func (r *Recorder) Emit(rec Record) {
	if r == nil {
		return
	}
	rec.Shard = r.shard
	rec.Seq = r.seq
	r.seq++
	if r.n < cap(r.ring) {
		r.ring = append(r.ring, rec)
		r.n++
		return
	}
	// Full: overwrite the oldest slot and advance the ring head.
	r.ring[r.head] = rec
	r.head = (r.head + 1) % cap(r.ring)
	r.dropped++
}

// Instant emits a point event on a track.
func (r *Recorder) Instant(track, name string, t int64, tx int, attrs ...Attr) {
	r.Emit(Record{Kind: KindInstant, Track: track, Name: name, T: t, Tx: tx, Attrs: attrs})
}

// Span emits a [start, end] span on a track. Spans with end < start
// are clamped to zero duration rather than dropped — a clock can
// never run backwards here, but a missing boundary defaults to 0.
func (r *Recorder) Span(track, name string, start, end int64, tx int, attrs ...Attr) {
	dur := end - start
	if dur < 0 {
		dur = 0
	}
	r.Emit(Record{Kind: KindSpan, Track: track, Name: name, T: start, Dur: dur, Tx: tx, Attrs: attrs})
}

// Records returns the held records in emission order (oldest first).
func (r *Recorder) Records() []Record {
	if r == nil || r.n == 0 {
		return nil
	}
	out := make([]Record, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.ring[(r.head+i)%cap(r.ring)])
	}
	return out
}

// Len reports how many records the ring currently holds.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Dropped reports how many records ring eviction discarded.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Trace is a whole run's merged trace: per-shard streams concatenated
// in shard order, so identical configurations produce byte-identical
// exports regardless of worker scheduling.
type Trace struct {
	Records []Record
	// Dropped totals ring evictions across all shards; nonzero means
	// the export is a suffix of the full record stream.
	Dropped uint64
}

// Merge appends one shard's stream. Call in shard order.
func (t *Trace) Merge(r *Recorder) {
	if r == nil {
		return
	}
	t.Records = append(t.Records, r.Records()...)
	t.Dropped += r.Dropped()
}
