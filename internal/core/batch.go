package core

// batch.go is the multi-query batch pipeline behind POST /query/batch:
// N S2SQL queries answered as one pass that shares the per-run document
// layer, the extraction parallelism bound, and one deadline budget
// across the batch (extract.Manager.ExtractQueryBatch), while every
// query keeps its own plan-cache entry, trace root, metrics, and
// canonically sorted result — so each per-query answer is byte-identical
// to what the single-query path would return, and only the duplicated
// document work and sequential wall-clock are saved.

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
// nested under one "batch" trace root. Each successful result is handed
// to sink(i, res), when sink is non-nil, as soon as it is generated —
// the transport hands a sink that frames the serialized bytes onto the
// batch response. A sink error becomes that query's error.
func (m *Middleware) QueryBatchTo(ctx context.Context, queries []string, sink func(int, *instance.Result) error) ([]*instance.Result, []error) {
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

	for i := range queries {
		if errs[i] != nil {
			finishes[i](nil, errs[i])
			continue
		}
		// The shared scatter already ran this query's extraction stage.
		res, err := m.materialize(qctxs[i], preps[i], func(context.Context, *extract.Schema) (*extract.ResultSet, error) {
			return sets[i], xerrs[i]
		})
		if err == nil && sink != nil {
			err = sink(i, res)
		}
		if err != nil {
			errs[i] = err
			finishes[i](res, err)
			continue
		}
		results[i] = res
		finishes[i](res, nil)
	}
	return results, errs
}
