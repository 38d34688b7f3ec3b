package extract

// batch.go is the multi-query extraction scatter behind the /query/batch
// endpoint: N planned queries run as one extraction pass that shares the
// per-run document layer (each source document fetched/parsed once for
// the whole batch, not once per query), one parallelism semaphore (the
// Options.Parallelism bound caps concurrent source contacts across the
// batch, not per query), and one deadline budget. Each query otherwise
// runs extraction independently over its own schema — its own wave
// split, failover marking, and canonical sort — so every per-query
// ResultSet is byte-identical to what a standalone ExtractQuery of the
// same schema would return; only wall-clock and duplicate document work
// differ.

import (
	"context"
	"sync"
)

// sharedRun is the state one extraction batch holds in common across
// its per-query runs; extract() substitutes it for the corresponding
// per-run state when non-nil.
type sharedRun struct {
	docs *runDocs
	sem  chan struct{}
}

// ExtractQueryBatch runs every schema's extraction as one shared pass
// and returns per-query result sets and errors, both aligned with
// schemas. A nil schema (a query whose planning failed) occupies its
// slot in errs without affecting its siblings, mirroring N independent
// ExtractQuery calls. The per-query "extract" spans all attach to ctx's
// span, so a batch trace shows the scatter side by side.
func (m *Manager) ExtractQueryBatch(ctx context.Context, schemas []*Schema) ([]*ResultSet, []error) {
	results := make([]*ResultSet, len(schemas))
	errs := make([]error, len(schemas))
	if len(schemas) == 0 {
		return results, errs
	}

	// One deadline budget bounds the whole batch (extract() skips its
	// own when handed a shared run): the batch is one client request,
	// and a per-query budget would let N queries hold sources N times
	// longer than a single request may.
	if m.opts.QueryBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, m.opts.QueryBudget)
		defer cancel()
	}

	shared := &sharedRun{
		docs: newRunDocs(),
		sem:  make(chan struct{}, m.opts.Parallelism),
	}
	var wg sync.WaitGroup
	for i, s := range schemas {
		wg.Add(1)
		go func(i int, s *Schema) {
			defer wg.Done()
			results[i], errs[i] = m.extract(ctx, s, nil, shared)
		}(i, s)
	}
	wg.Wait()
	return results, errs
}
