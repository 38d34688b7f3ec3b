package core

// batch.go is the multi-query batch pipeline behind POST /query/batch:
// N S2SQL queries answered as one pass that shares the per-run document
// layer, the extraction parallelism bound, and one deadline budget
// across the batch (extract.Manager.ExtractQueryBatch), while every
// query keeps its own plan-cache entry, trace root, metrics, and
// canonically sorted result, and is answered through answer as a
// single query is — so each per-query answer is byte-identical to what
// the single-query path would return, and only the duplicated document
// work and sequential wall-clock are saved.

import (
	"context"
	"strconv"

	"repro/internal/extract"
	"repro/internal/instance"
	"repro/internal/obs"
)

// QueryBatchTo answers N S2SQL queries as one batch. The returned
// results and errors are both aligned with queries; a failing query
// occupies its error slot without affecting its siblings, exactly as N
// separate Query calls would behave. All queries share one extraction
// scatter; each nonetheless runs its own planning (through the shared
// plan cache), instance generation, and per-query trace and metrics,
// nested under one "batch" trace root. Each member is then answered as
// a streamed Request whose extraction returns its slice of the scatter:
// when sink is non-nil, member i is serialized into sink(i) under its
// own query span, and a Sink error becomes its error. done, when
// non-nil, runs for every member, failed ones included, in query order
// before the next member starts; the transport writes each member's
// trailer frame there, so its frames stay contiguous on the wire.
func (m *Middleware) QueryBatchTo(ctx context.Context, queries []string, format instance.Format, sink func(i int) *Sink, done func(i int, res *instance.Result, err error)) ([]*instance.Result, []error) {
	n := len(queries)
	results := make([]*instance.Result, n)
	errs := make([]error, n)
	if n == 0 {
		return results, errs
	}

	// One "batch" root: the per-query roots beginQuery opens join it, so
	// the trace shows the whole batch side by side; the shared extraction
	// scatter's per-query extract stages attach to the batch root (the
	// scatter belongs to the batch, not to any one query).
	ctx = obs.ContextWithMetrics(ctx, m.metrics)
	ctx, root := m.tracer.StartTrace(ctx, "batch")
	root.SetAttr("queries", strconv.Itoa(n))
	defer root.End()

	qctxs := make([]context.Context, n)
	finishes := make([]func(*instance.Result, error), n)
	preps := make([]*prepared, n)
	schemas := make([]*extract.Schema, n)
	for i, q := range queries {
		qctxs[i], finishes[i] = m.beginQuery(ctx, q)
		if preps[i], errs[i] = m.planQuery(qctxs[i], q); errs[i] == nil {
			schemas[i] = preps[i].schema
		}
	}

	// One extraction scatter for the whole batch. Slots whose planning
	// failed hold nil schemas; the scatter reports them as errors we
	// already have, and they are skipped below.
	sets, xerrs := m.manager.ExtractQueryBatch(ctx, schemas)

	for i, q := range queries {
		var res *instance.Result
		if errs[i] == nil {
			// The shared scatter already ran this query's extraction stage.
			req := Request{Query: q, Format: format, Stream: true, Extract: func(context.Context, *extract.Schema) (*extract.ResultSet, error) {
				return sets[i], xerrs[i]
			}}
			var s *Sink
			if sink != nil {
				s = sink(i)
			}
			res, _, errs[i] = m.answer(qctxs[i], preps[i], req, s)
		}
		if errs[i] == nil {
			results[i] = res
		}
		finishes[i](res, errs[i])
		if done != nil {
			done(i, res, errs[i])
		}
	}
	return results, errs
}
