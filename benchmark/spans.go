package main

import (
	"bufio"
	"encoding/json"
	"io"
	"time"
)

// span is one timed interval recorded by the harness around a call
// into a layer. Times are host nanoseconds since the log was created;
// Parent is the id of the span that caused this one (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory; they are written once, when the
// traced run ends, so recording never touches the disk mid-run.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (l *spanLog) begin(name string, parent int) int {
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, StartNs: int64(time.Since(l.t0))})
	return len(l.spans)
}

// end closes span id and returns its duration in nanoseconds.
func (l *spanLog) end(id int) int64 {
	s := &l.spans[id-1]
	s.EndNs = int64(time.Since(l.t0))
	return s.EndNs - s.StartNs
}

// writeNDJSON writes one span per line.
func (l *spanLog) writeNDJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
