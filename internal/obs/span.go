package obs

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed operation in a trace tree. Fields are exported for
// JSON serialization (GET /trace/last); mutate spans only through the
// methods, which are safe for concurrent use and nil-safe.
type Span struct {
	// TraceID groups every span of one query, across processes.
	TraceID string `json:"traceId"`
	// ID is the span's unique identifier within the trace.
	ID string `json:"spanId"`
	// ParentID is the parent span's ID ("" for a root).
	ParentID string `json:"parentId,omitempty"`
	// Name is the operation, e.g. "query", "extract", "source:db_1".
	Name string `json:"name"`
	// Start is the span's start time.
	Start time.Time `json:"start"`
	// Duration is the span's wall time, set by End (nanoseconds in JSON).
	Duration time.Duration `json:"durationNs"`
	// Attrs annotates the span (outcome, retries, cache, breaker, ...).
	Attrs map[string]string `json:"attrs,omitempty"`
	// Children are the nested spans, in start order.
	Children []*Span `json:"children,omitempty"`

	mu     sync.Mutex
	ended  bool
	tracer *Tracer
}

// StartChild starts a nested span. Safe to call from concurrent
// goroutines (the per-source fan-out does).
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	child := &Span{TraceID: s.TraceID, ID: newID(), ParentID: s.ID, Name: name, Start: time.Now()}
	s.mu.Lock()
	s.Children = append(s.Children, child)
	s.mu.Unlock()
	return child
}

// SetAttr annotates the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.Attrs == nil {
		s.Attrs = make(map[string]string)
	}
	s.Attrs[key] = value
	s.mu.Unlock()
}

// Adopt grafts a span tree produced elsewhere (typically a remote
// middleware's subtree returned over HTTP) under this span.
func (s *Span) Adopt(child *Span) {
	if s == nil || child == nil {
		return
	}
	child.ParentID = s.ID
	s.mu.Lock()
	s.Children = append(s.Children, child)
	s.mu.Unlock()
}

// End stamps the span's duration. Ending a root span records the
// finished trace in its tracer's ring buffer. End is idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.Duration = time.Since(s.Start)
	t := s.tracer
	s.mu.Unlock()
	if t != nil {
		t.record(s)
	}
}

// Walk visits the span and every descendant, depth-first in child order.
func (s *Span) Walk(fn func(*Span)) {
	if s == nil {
		return
	}
	fn(s)
	for _, c := range s.Children {
		c.Walk(fn)
	}
}

// WriteTree pretty-prints a span tree, one span per line, indented by
// depth, with duration and sorted attributes:
//
//	query 12.4ms matched=30 outcome=ok
//	  parse_plan 180µs
//	  extract 10.1ms sources=4
//	    source:db_1 9.8ms kind=database outcome=ok retries=0
func WriteTree(w io.Writer, s *Span) {
	writeTree(w, s, 0)
}

func writeTree(w io.Writer, s *Span, depth int) {
	if s == nil {
		return
	}
	for i := 0; i < depth; i++ {
		fmt.Fprint(w, "  ")
	}
	fmt.Fprintf(w, "%s %s", s.Name, s.Duration.Round(time.Microsecond))
	keys := make([]string, 0, len(s.Attrs))
	for k := range s.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%s", k, s.Attrs[k])
	}
	fmt.Fprintln(w)
	for _, c := range s.Children {
		writeTree(w, c, depth+1)
	}
}

// DefaultTraceCapacity is the ring-buffer size of a zero-configured
// Tracer.
const DefaultTraceCapacity = 64

// Tracer mints trace roots and retains the most recent completed traces
// in a bounded in-memory ring buffer. The zero value is not usable; call
// NewTracer.
type Tracer struct {
	mu   sync.Mutex
	ring []*Span
	pos  int
	full bool
}

// NewTracer returns a tracer retaining up to capacity completed traces
// (DefaultTraceCapacity when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{ring: make([]*Span, capacity)}
}

// StartTrace starts a query trace. If the context already carries an
// active span, the new span joins that trace as a child (so nested
// instrumentation layers produce one tree, recorded once by the
// outermost layer). If the context carries a [Remote], the root adopts
// the remote trace ID and parent span ID. Otherwise a fresh trace ID is
// minted. Ending the returned root span records the trace.
func (t *Tracer) StartTrace(ctx context.Context, name string) (context.Context, *Span) {
	if parent := SpanFromContext(ctx); parent != nil {
		child := parent.StartChild(name)
		return ContextWithSpan(ctx, child), child
	}
	s := &Span{TraceID: newID(), ID: newID(), Name: name, Start: time.Now(), tracer: t}
	if r, ok := RemoteFromContext(ctx); ok {
		s.TraceID = r.TraceID
		s.ParentID = r.ParentID
	}
	return ContextWithSpan(ctx, s), s
}

// record stores a completed root trace, evicting the oldest.
func (t *Tracer) record(s *Span) {
	t.mu.Lock()
	t.ring[t.pos] = s
	t.pos++
	if t.pos == len(t.ring) {
		t.pos, t.full = 0, true
	}
	t.mu.Unlock()
}

// Last returns up to n completed traces, most recent first.
func (t *Tracer) Last(n int) []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	size := t.pos
	if t.full {
		size = len(t.ring)
	}
	if n > size {
		n = size
	}
	out := make([]*Span, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, t.ring[(t.pos-i+len(t.ring))%len(t.ring)])
	}
	return out
}

// Len returns the number of retained traces.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.full {
		return len(t.ring)
	}
	return t.pos
}
