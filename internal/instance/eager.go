package instance

// eager.go is the barrier-free query path (docs/STREAMING.md,
// "Barrier-free emission"): when the planner proved a query merge-free
// (planner.ProveMergeFree), no instance can merge across fragments, no
// relation can link, and assembly order is the canonical order — so
// there is nothing an ordering barrier would wait for. GenerateEager
// fuses generation and serialization into the extraction run's
// per-source sink: each source's fragments are assembled as the source
// finishes, its instances filtered and numbered in canonical order, and
// their serialized bytes flushed through the ChunkedWriter, so the first
// instance reaches the wire while slower sources are still extracting.
//
// Canonical order is sources in sorted ID order, records in extraction
// order. Sources finish in any order, so the sink emits the lowest
// unemitted source directly and stashes later sources until every
// earlier source has been emitted; one slow source therefore only delays
// instances that canonically follow its own. Output bytes are identical
// to the materialized path (under the same merge-free flag) because both
// produce the same instances in the same order through the same
// assembler and document pieces — the equivalence suite in
// internal/core pins this.
//
// Only the formats whose row is eager stream this way (JSON and XML);
// the middleware takes the materialized path for the rest.

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"

	"repro/internal/extract"
	"repro/internal/s2sql"
)

// EagerFormat reports whether format supports barrier-free emission:
// its serialization writes instances incrementally with nothing ahead
// of them that depends on the complete result.
func EagerFormat(format Format) bool {
	r := format.row()
	return r != nil && r.eager
}

// GenerateEager serializes a query's result to w in bounded chunks
// while its extraction runs, without an ordering barrier. sources are
// the IDs of every planned source in sorted order — the canonical
// emission order. run executes the extraction, calling deliver once
// with the complete fragments of every source that ran (concurrently,
// from the source goroutines; extract.Manager.ExtractQueryEach has that
// contract), and returns the fragment-free result set: errors, missing
// attributes, stats.
//
// It must only be called for plans the planner proved merge-free and
// for formats EagerFormat accepts. The returned Result carries the
// matched instances, errors, and tail diagnostics exactly as the
// materialized path would (the bytes written to w serialize that same
// result). On error, part of the body may already be on the wire — the
// caller signals completion out of band, as the transport's trailers
// do. A writer failure stops emission but not extraction: run always
// completes. Generation and serialization are fused here, so the caller
// records one generate stage for both.
func (g *Generator) GenerateEager(plan *s2sql.Plan, sources []string, w io.Writer, format Format, run func(deliver func(sourceID string, frags []extract.Fragment)) (*extract.ResultSet, error)) (*Result, ChunkStats, error) {
	if plan == nil {
		return nil, ChunkStats{}, fmt.Errorf("instance: nil plan")
	}
	if !EagerFormat(format) {
		return nil, ChunkStats{}, fmt.Errorf("instance: format %s cannot stream barrier-free", format)
	}
	dw := formats[format].writer(g)

	cw := NewChunkedWriter(w, 0)
	res := &Result{Plan: plan}
	condKeys := conditionKeys(plan.Conditions)
	counters := map[string]int{}
	var condErrs []extract.SourceError
	// werr is the first write error; once set, nothing more is emitted.
	cw.Grow(pieceRoom)
	_, werr := dw.head(cw, res)

	// emit filters, numbers, and serializes one source's instances in
	// canonical order, then flushes them to the wire. Condition
	// evaluation happens here — at emission, never at stashing — so
	// evaluation errors accrue in canonical order too, matching the
	// materialized path's error list byte for byte.
	emit := func(ins []*Instance) {
		if werr != nil {
			return
		}
		for _, in := range ins {
			if !in.Class.IsA(plan.Class) {
				continue
			}
			ok, err := satisfiesAll(in, plan.Conditions, condKeys)
			if err != nil {
				condErrs = append(condErrs, conditionError(in, err))
				continue
			}
			if !ok {
				continue
			}
			counters[in.Class.Name]++
			in.ID = in.Class.Name + "_" + strconv.Itoa(counters[in.Class.Name])
			if werr = dw.instance(cw, in); werr != nil {
				return
			}
			res.Matched = append(res.Matched, in)
		}
		werr = cw.Flush()
	}

	// The sink assembles a source outside the lock. Within one source the
	// materialized path's global (attribute, source) fragment sort reduces
	// to an attribute sort, and the merge-free proof guarantees a single
	// lineage group per source, so the instances are exactly the
	// materialized path's for that source. Under the lock it stashes them
	// and emits every stashed source from sources[next] on, stopping at
	// the first that has not been delivered.
	var (
		mu      sync.Mutex
		next    int
		stashed = map[string][]*Instance{}
		srcErrs = map[string][]extract.SourceError{}
	)
	rs, err := run(func(sourceID string, frags []extract.Fragment) {
		sort.SliceStable(frags, func(i, j int) bool { return frags[i].AttributeID < frags[j].AttributeID })
		ins, errs := g.assembleSource(nil, sourceID, frags)
		mu.Lock()
		defer mu.Unlock()
		srcErrs[sourceID] = errs
		stashed[sourceID] = ins
		for ; next < len(sources); next++ {
			held, ok := stashed[sources[next]]
			if !ok {
				break
			}
			delete(stashed, sources[next])
			emit(held)
		}
	})
	if err != nil {
		return res, cw.Stats(), err
	}
	// The run is over. A source that never ran delivered nothing (its
	// error is in rs); the sources it held back go out now.
	for ; next < len(sources); next++ {
		emit(stashed[sources[next]])
	}
	if werr != nil {
		return res, cw.Stats(), werr
	}

	// The materialized path's error order: extraction's sorted per-source
	// errors, then partition diagnostics in sorted source order, then
	// condition-evaluation errors in canonical instance order.
	res.Errors = append(res.Errors, rs.Errors...)
	for _, id := range sources {
		res.Errors = append(res.Errors, srcErrs[id]...)
	}
	res.Errors = append(res.Errors, condErrs...)
	res.Missing = append(res.Missing, rs.Missing...)

	// Merge-free plans cannot link, so Related is empty and the tail only
	// closes the document.
	if err := dw.tail(cw, res); err != nil {
		return res, cw.Stats(), err
	}
	if err := cw.Flush(); err != nil {
		return res, cw.Stats(), err
	}
	return res, cw.Stats(), nil
}
