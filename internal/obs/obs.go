// Package obs is the middleware's observability layer: per-query span
// trees (tracing) and a Prometheus-style metrics registry, both built on
// the standard library only.
//
// # Tracing
//
// A [Tracer] owns a bounded ring buffer of completed traces. A trace is a
// tree of [Span] values describing one query's journey through the
// pipeline: parse_plan (extraction_schema under it on a plan-cache miss)
// → extract → one source:<id> child per contacted data source →
// generate → serialize. Spans travel
// through the call graph inside a [context.Context], so packages deep in
// the pipeline (extract, instance) emit spans without any API change:
//
//	ctx, root := tracer.StartTrace(ctx, "query") // new root (or child if ctx already traces)
//	...
//	ctx, span := obs.StartSpan(ctx, "extract")   // child of the context span
//	span.SetAttr("sources", "4")
//	span.End()
//	...
//	root.End()                                   // records the finished tree
//
// Every span API is nil-safe: when the context carries no span,
// [StartSpan] returns nil and all methods on a nil *Span are no-ops, so
// instrumented code needs no conditionals.
//
// Federated deployments join traces across processes. An HTTP server
// extracts the caller's trace/span IDs into the context with
// [ContextWithRemote]; the next [Tracer.StartTrace] then adopts the
// remote trace ID and parent span ID instead of minting a new trace, and
// [Span.Adopt] grafts a subtree returned by a remote peer under a local
// span — so a query that fans out across middleware instances reads as
// one connected tree.
//
// # Metrics
//
// A [Registry] holds counters and log-linear latency histograms keyed by
// metric family name plus a small label set (stage, source, outcome).
// Hot-path updates are single atomic adds; family lookup takes a
// read-lock only. The registry travels in the context too
// ([ContextWithMetrics] / [MetricsFromContext]) and, like spans, every
// method is nil-safe. [Registry.WritePrometheus] renders the classic
// text exposition format for a GET /metrics endpoint.
//
// The canonical list of exported metric families lives in
// [Descriptors]; docs/OBSERVABILITY.md documents each one and a test
// keeps the two in sync.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"time"
)

// newID returns a 16-hex-digit random identifier for traces and spans.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unheard of; fall back to a time-derived
		// id rather than panicking in an instrumentation path.
		return hex.EncodeToString([]byte(time.Now().Format("150405.000")))[:16]
	}
	return hex.EncodeToString(b[:])
}

type spanKey struct{}
type metricsKey struct{}
type remoteKey struct{}

// ContextWithSpan returns a context carrying the span. A nil span leaves
// the context unchanged.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the context's active span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan starts a child of the context's active span and returns a
// context carrying it. Without an active span it returns (ctx, nil); all
// methods on the nil span are no-ops.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.StartChild(name)
	return ContextWithSpan(ctx, child), child
}

// StartStage starts a pipeline-stage span and returns a done func that
// ends the span and records the stage's latency in the context metrics
// registry under [MetricStageDuration]. It works — as a pure timer — even
// when the context carries neither span nor registry.
func StartStage(ctx context.Context, stage string) (context.Context, *Span, func()) {
	start := time.Now()
	sctx, span := StartSpan(ctx, stage)
	reg := MetricsFromContext(ctx)
	return sctx, span, func() {
		span.End()
		reg.Histogram(MetricStageDuration, Labels{"stage": stage}).Observe(time.Since(start).Seconds())
	}
}

// ContextWithMetrics returns a context carrying the metrics registry.
func ContextWithMetrics(ctx context.Context, r *Registry) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, metricsKey{}, r)
}

// MetricsFromContext returns the context's metrics registry, or nil (on
// which every Registry method is a no-op).
func MetricsFromContext(ctx context.Context) *Registry {
	r, _ := ctx.Value(metricsKey{}).(*Registry)
	return r
}

// Remote identifies an in-flight trace started by a remote caller: the
// trace to join and the caller's span to parent under.
type Remote struct {
	TraceID  string
	ParentID string
}

// ContextWithRemote marks the context as part of a remote trace; the
// next [Tracer.StartTrace] joins it instead of minting a new trace ID.
func ContextWithRemote(ctx context.Context, r Remote) context.Context {
	if r.TraceID == "" {
		return ctx
	}
	return context.WithValue(ctx, remoteKey{}, r)
}

// RemoteFromContext returns the remote trace identity, if any.
func RemoteFromContext(ctx context.Context) (Remote, bool) {
	r, ok := ctx.Value(remoteKey{}).(Remote)
	return r, ok
}
