package main

// tracepass.go is the traced pass: the first operations of the same
// trace, replayed one at a time from one goroutine through the staged
// pipeline of layers.go, with a span around every call into a layer. It
// yields the per-layer numbers; the end-to-end numbers never come from
// here.

import (
	"context"
	"fmt"
	"strconv"
	"time"
)

// tracedPass stages the workload's first TracedOps operations and fills
// in the per-layer metrics that come from spans and exact counts. Every
// staged document must equal the wire reference for the same query and
// format, which is what shows that the stages measure the real pipeline.
func (b *bench) tracedPass(cfg runConfig, values map[string]float64) (attempted, failed int, err error) {
	ctx := context.Background()
	log := newSpanLog()
	c := b.clients[0]
	ops := b.w.TracedOps
	if cfg.MaxOps > 0 {
		ops = min(ops, cfg.MaxOps)
	}

	var (
		all           []*staged
		transportOver []float64 // round trip minus in-process query, single-query ops
	)
	// The trace's operations, then five registrations: every workload
	// reports what a registration costs an idle server, whether or not
	// its trace holds one.
	for n := 0; n < ops+5; n++ {
		s := b.reg
		if n < ops {
			s = b.w.sendOpAt(b.ops, b.reg, n)
		}
		root := log.begin("op", -1, n)
		attempted++
		if s.Kind == opRegister {
			i := log.begin("core.register", root, n)
			a := c.send(s, "traced_"+strconv.Itoa(n))
			log.end(i)
			if _, why := s.verdict(a); why != "" {
				failed++
			}
			log.end(root)
			continue
		}
		var inProcess time.Duration
		for qi, q := range s.Queries {
			st, err := b.sys.stageQuery(ctx, log, root, n, q, s.Format)
			if err != nil {
				return attempted, failed, fmt.Errorf("traced op %d: %w", n, err)
			}
			for i, doc := range [][]byte{st.Doc, st.QueryDoc, st.StreamDoc} {
				if sumOf(doc) != s.refs[qi].Raw {
					return attempted, failed, fmt.Errorf("traced op %d: the %s document of %q as %s differs from the server's answer",
						n, []string{"staged", "QueryTo", "QueryToStream"}[i], q, s.Format)
				}
			}
			inProcess += st.Query
			st.DocLen, st.Doc, st.QueryDoc, st.StreamDoc = len(st.Doc), nil, nil, nil
			all = append(all, st)
		}
		i := log.begin("transport.roundtrip", root, n)
		a := c.send(s, "")
		trip := log.end(i)
		if _, why := s.verdict(a); why != "" {
			failed++
		}
		if len(s.Queries) == 1 {
			transportOver = append(transportOver, float64(trip-inProcess)/1e6)
		}
		log.end(root)
	}
	if len(all) == 0 {
		return attempted, failed, fmt.Errorf("traced pass staged no query")
	}

	// Span durations by name, and the roots' self time.
	byName := map[string][]float64{}
	total := map[string]float64{}
	for _, sp := range log.spans {
		d := float64(sp.End - sp.Start)
		byName[sp.Name] = append(byName[sp.Name], d)
		total[sp.Name] += d
	}
	var rootSelf []float64
	for i, self := range selfTimes(log.spans) {
		if log.spans[i].Parent < 0 {
			rootSelf = append(rootSelf, float64(self)/1e6)
		}
	}
	us := func(name string) float64 { return median(byName[name]) / 1e3 }
	ms := func(name string) float64 { return median(byName[name]) / 1e6 }

	values["s2sql.parse_plan_us"] = us("s2sql.plan")
	values["core.plan_cached_us"] = us("core.plan")
	values["core.query_ms"] = ms("core.query")
	values["core.register_ms"] = ms("core.register")
	values["mapping.schema_us"] = us("mapping.schema")
	values["planner.rewrite_us"] = us("planner.rewrite")
	kinds := 0.0
	for _, k := range sourceKinds {
		values["extract."+k.Name+"_ms"] = ms("extract." + k.Name)
		kinds += total["extract."+k.Name]
	}
	values["extract.all_ms"] = ms("extract.all")
	values["extract.parallel_speedup"] = kinds / total["extract.all"]
	values["instance.generate_ms"] = ms("instance.generate")
	values["instance.serialize_ms"] = ms("instance.serialize")
	values["transport.overhead_ms"] = median(transportOver)
	values["trace.self_other_ms"] = median(rootSelf)

	// Exact counts: one sequential client, so they repeat at a seed.
	var sum struct {
		proved, fragments, instances, bytes int
		extractA, generateA, serializeA     uint64
		pipeline, query                     time.Duration
		firstChunk, highWater               []float64
	}
	for _, st := range all {
		if st.MergeFree {
			sum.proved++
		}
		sum.fragments += st.Fragments
		sum.instances += st.Instances
		sum.bytes += st.DocLen
		sum.extractA += st.ExtractAllocs
		sum.generateA += st.GenerateAllocs
		sum.serializeA += st.SerializeAllocs
		sum.pipeline += st.Pipeline
		sum.query += st.Query
		sum.firstChunk = append(sum.firstChunk, float64(st.FirstChunk)/1e6)
		sum.highWater = append(sum.highWater, float64(st.HighWater)/1024)
	}
	n := float64(len(all))
	values["planner.mergefree_proved_ratio"] = float64(sum.proved) / n
	values["extract.fragments_per_op"] = float64(sum.fragments) / n
	values["extract.allocs_per_op"] = float64(sum.extractA) / n
	values["instance.instances_per_op"] = float64(sum.instances) / n
	values["instance.generate_allocs_per_op"] = float64(sum.generateA) / n
	values["instance.serialize_allocs_per_op"] = float64(sum.serializeA) / n
	values["instance.bytes_per_instance"] = float64(sum.bytes) / float64(max(sum.instances, 1))
	values["instance.stream_first_chunk_ms"] = median(sum.firstChunk)
	values["instance.chunk_highwater_kb"] = median(sum.highWater)
	values["trace.overhead_share"] = float64(sum.pipeline-sum.query) / float64(sum.query)

	// One fixed result — the largest staged answer — in every format.
	fixed := all[0]
	for _, st := range all {
		if st.Instances > fixed.Instances {
			fixed = st
		}
	}
	perFormat, err := b.sys.serializeFormats(fixed, 5)
	if err != nil {
		return attempted, failed, err
	}
	for name, d := range perFormat {
		values["instance.serialize_"+name+"_ms"] = float64(d) / 1e6
	}
	cfg.Header.TracedOps = ops
	return attempted, failed, log.write(cfg.OutDir, b.w.Name)
}
