package instance

// eager.go is the barrier-free query path (docs/STREAMING.md,
// "Barrier-free emission"): when the planner proved a query merge-free
// (planner.ProveMergeFree), no instance can merge across fragments, no
// relation can link, and assembly order is the canonical order — so
// there is nothing an ordering barrier would wait for. GenerateEager
// fuses generation and serialization: it consumes extraction windows as
// they arrive, filters and numbers each window's instances in canonical
// order, and hands their serialized bytes to the ChunkedWriter as each
// window closes, flushing per window so the first instance reaches the
// wire while slower sources are still extracting.
//
// Canonical order is sources in sorted ID order, records in extraction
// order. Batches of different sources interleave in completion order,
// so the consumer emits the lowest unemitted source directly and
// buffers windows of later sources until every earlier source finished;
// one slow source therefore only delays instances that canonically
// follow its own. Output bytes are identical to the materialized path
// (under the same merge-free flag) because both produce the same
// instances in the same order through the same assembler and document
// pieces — the equivalence suite in internal/core pins this.
//
// Only the formats with a docWriter stream eagerly (JSON and XML); the
// middleware takes the materialized path for the rest.

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/extract"
	"repro/internal/obs"
	"repro/internal/s2sql"
)

// EagerFormat reports whether format supports barrier-free emission:
// its serialization writes instances incrementally with nothing ahead
// of them that depends on the complete result.
func EagerFormat(format Format) bool {
	_, ok := docWriters[format]
	return ok
}

// GenerateEager consumes st and serializes the result to w in bounded
// chunks as extraction windows close, without an ordering barrier. It
// must only be called for plans the planner proved merge-free and for
// formats EagerFormat accepts; it is the stream's only consumer and
// leaves it fully drained, on errors too. The returned Result carries
// the matched instances, errors, and tail diagnostics exactly as the
// materialized path would (the bytes written to w serialize that same
// result). On error, part of the body may already be on the wire — the
// caller signals completion out of band, as the transport's trailers
// do. It runs under a "generate" span (annotated eager=true);
// generation and serialization are fused here, so no separate serialize
// stage is recorded.
func (g *Generator) GenerateEager(ctx context.Context, plan *s2sql.Plan, st *extract.Stream, w io.Writer, format Format) (*Result, ChunkStats, error) {
	if plan == nil {
		return nil, ChunkStats{}, fmt.Errorf("instance: nil plan")
	}
	if st == nil {
		return nil, ChunkStats{}, fmt.Errorf("instance: nil stream")
	}
	dw, ok := docWriters[format]
	if !ok {
		st.Drain()
		return nil, ChunkStats{}, fmt.Errorf("instance: format %s cannot stream barrier-free", format)
	}
	_, span, done := obs.StartStage(ctx, "generate")
	defer done()
	span.SetAttr("eager", "true")

	cw := NewChunkedWriter(w, 0)
	res, err := g.consumeEager(plan, st, cw, dw)
	if err != nil {
		// The write side failed mid-stream: release the producer, which
		// would otherwise block on its next (unbuffered) send.
		st.Drain()
		return res, cw.Stats(), err
	}
	if err := cw.Flush(); err != nil {
		return res, cw.Stats(), err
	}
	span.SetAttr("matched", strconv.Itoa(len(res.Matched)))
	span.SetAttr("chunks", strconv.Itoa(cw.Stats().Chunks))
	return res, cw.Stats(), nil
}

// consumeEager is the eager consumer loop; on return with err == nil the
// batches channel is fully drained and the document (including its
// tail) is written, possibly with bytes still buffered in cw.
func (g *Generator) consumeEager(plan *s2sql.Plan, st *extract.Stream, cw *ChunkedWriter, dw docWriter) (*Result, error) {
	res := &Result{Plan: plan}
	condKeys := conditionKeys(plan.Conditions)
	counters := map[string]int{}
	var condErrs []extract.SourceError

	// emit filters, numbers, and serializes one window's instances in
	// canonical order, then flushes the window to the wire. Condition
	// evaluation happens here — at emission, never at buffering — so
	// evaluation errors accrue in canonical order too, matching the
	// materialized path's error list byte for byte.
	emit := func(ins []*Instance) error {
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
			if err := dw.instance(g, cw, in, len(res.Matched) == 0); err != nil {
				return err
			}
			res.Matched = append(res.Matched, in)
		}
		return cw.Flush()
	}

	if err := dw.head(g, cw, plan); err != nil {
		return res, err
	}

	// The lowest unemitted source (sources[next]) emits directly; later
	// sources buffer their assembled windows until every earlier source
	// finished. A source's Last batch advances next past it and drains
	// whatever the following sources buffered meanwhile. The merge-free
	// proof guarantees a single lineage group per source, so windows
	// concatenated in sequence order reproduce the materialized path's
	// group-major assembly order exactly.
	sources := st.Sources
	next := 0
	pending := map[string][][]*Instance{}
	finished := map[string]bool{}
	perSrcErrs := map[string][]extract.SourceError{}

	for b := range st.Batches {
		// Unmapped-attribute diagnostics would repeat identically in
		// every window, so only window 0's are kept.
		ins, errs := g.assembleSource(nil, b.SourceID, b.Fragments)
		if b.Seq == 0 {
			perSrcErrs[b.SourceID] = errs
		}
		if b.Last {
			finished[b.SourceID] = true
		}
		if next < len(sources) && b.SourceID == sources[next] {
			if err := emit(ins); err != nil {
				return res, err
			}
			for next < len(sources) && finished[sources[next]] {
				next++
				if next == len(sources) {
					break
				}
				for _, win := range pending[sources[next]] {
					if err := emit(win); err != nil {
						return res, err
					}
				}
				delete(pending, sources[next])
			}
		} else {
			pending[b.SourceID] = append(pending[b.SourceID], ins)
		}
	}

	// Channel closed: every source is done (a source that never got to
	// run sends nothing and surfaces its error in the tail). Drain any
	// windows still buffered, in canonical order.
	for ; next < len(sources); next++ {
		for _, win := range pending[sources[next]] {
			if err := emit(win); err != nil {
				return res, err
			}
		}
		delete(pending, sources[next])
	}

	// Assemble the error list in the materialized path's order: the tail's
	// sorted per-source errors, then window-0 partition diagnostics in
	// sorted source order, then condition-evaluation errors in canonical
	// instance order.
	tail := st.Tail()
	res.Errors = append(res.Errors, tail.Errors...)
	srcIDs := make([]string, 0, len(perSrcErrs))
	for id := range perSrcErrs {
		srcIDs = append(srcIDs, id)
	}
	sort.Strings(srcIDs)
	for _, id := range srcIDs {
		res.Errors = append(res.Errors, perSrcErrs[id]...)
	}
	res.Errors = append(res.Errors, condErrs...)
	res.Missing = append(res.Missing, tail.Missing...)

	// Merge-free plans cannot link, so Related is empty and the tail only
	// closes the document.
	return res, dw.tail(g, cw, res)
}
