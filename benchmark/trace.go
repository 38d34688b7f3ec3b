package main

// trace.go is the traced pass's span log: spans are recorded in memory
// from the benchmark's own code, around each call into a layer, and
// written out when the run ends.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval. Start and End are nanoseconds since the
// log was opened; Parent is the index of the enclosing span in the log,
// -1 for a root. Spans of one operation share OpID.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	OpID   int    `json:"op_id"`
}

type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its index.
func (l *spanLog) begin(name string, parent, opID int) int {
	l.spans = append(l.spans, span{Name: name, Start: int64(time.Since(l.t0)), Parent: parent, OpID: opID})
	return len(l.spans) - 1
}

// end closes span i and returns its duration.
func (l *spanLog) end(i int) time.Duration {
	l.spans[i].End = int64(time.Since(l.t0))
	return time.Duration(l.spans[i].End - l.spans[i].Start)
}

// selfTimes returns, per span, its duration minus the part of it that
// its child spans cover. Children are clipped to the parent and
// overlapping children are counted once; the log is in start order, so
// one sweep per parent suffices.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	covered := make([]int64, len(spans)) // end of the covered prefix, per parent
	for i, s := range spans {
		self[i] = s.End - s.Start
		covered[i] = s.Start
	}
	for _, s := range spans {
		p := s.Parent
		if p < 0 {
			continue
		}
		from, to := max(s.Start, covered[p]), min(s.End, spans[p].End)
		if to > from {
			self[p] -= to - from
			covered[p] = to
		}
	}
	return self
}

// write stores the log as JSON under dir.
func (l *spanLog) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
