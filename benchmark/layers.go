package main

// layers.go is the only file that calls into the repository's internal
// packages. The measured window uses nothing from here but newSystem
// (world + middleware + HTTP handler) and countMatching (the oracle);
// everything else is the traced pass's staged pipeline, built from the
// layers' public functions with a span around each call.
//
// Pinned surface: workload.Generate, World.Apply, World.CountMatching,
// core.New, faultinject.New(...).WrapBackends, extract.FromCatalog,
// transport.NewServer, s2sql.ParseAndPlan, Middleware.PlanMergeFree,
// Middleware.Mappings().Schema / .ClassKeys, planner.Rewrite,
// Middleware.ExtractPlanSources, Middleware.Generator().GenerateOpts /
// .Serialize, instance.ParseFormat, Middleware.QueryTo / .QueryToStream.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/faultinject"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/planner"
	"repro/internal/s2sql"
	"repro/internal/transport"
	"repro/internal/workload"
)

// sourceKinds are the extractor kinds in reporting order, named by the
// prefix the world generator gives their source IDs.
var sourceKinds = []struct{ Prefix, Name string }{
	{"db", "db"}, {"xml", "xml"}, {"web", "web"}, {"txt", "text"},
}

// system is one generated world registered into one middleware, behind
// the HTTP handler the server runs with its default options.
type system struct {
	world   *workload.World
	mw      *core.Middleware
	handler http.Handler
	// sources are all source IDs in registration order; byKind groups
	// them by sourceKinds prefix.
	sources []string
	byKind  map[string][]string
}

func newSystem(spec worldSpec, seed int64) (*system, error) {
	world, err := workload.Generate(workload.Spec{
		DBSources: spec.DB, XMLSources: spec.XML, WebSources: spec.Web, TextSources: spec.Text,
		RecordsPerSource: spec.Records, Seed: seed, FlatOntology: spec.Flat,
	})
	if err != nil {
		return nil, err
	}
	s := &system{world: world, byKind: map[string][]string{}}
	backends := extract.FromCatalog(world.Catalog)
	slow := faultinject.Plan{}
	for _, def := range world.Definitions {
		kind, _, _ := strings.Cut(def.ID, "_")
		s.sources = append(s.sources, def.ID)
		s.byKind[kind] = append(s.byKind[kind], def.ID)
		if spec.PartnerLatencyMs > 0 && (kind == "web" || kind == "txt") {
			// The injector keys on the backend address: URL for pages,
			// path for documents.
			slow[def.URL+def.Path] = faultinject.Fault{AddLatency: time.Duration(spec.PartnerLatencyMs) * time.Millisecond}
		}
	}
	if len(slow) > 0 {
		backends = faultinject.New(seed, slow).WrapBackends(backends)
	}
	s.mw, err = core.New(core.Config{Ontology: world.Ontology, Backends: backends})
	if err != nil {
		return nil, err
	}
	if err := world.Apply(s.mw); err != nil {
		return nil, err
	}
	s.handler = transport.NewServer(s.mw)
	return s, nil
}

// countMatching is the oracle: how many ground-truth records satisfy
// pred. No benchmark world sets a class key, so one record is one
// matched product.
func (s *system) countMatching(pred func(record) bool) int {
	return s.world.CountMatching(func(r workload.Record) bool {
		return pred(record{Brand: r.Brand, Case: r.Case, Source: r.SourceID, Price: r.Price, Water: r.WaterResistance})
	})
}

// staged is what one query's pass through the staged pipeline yielded:
// the serialized documents of the three compositions (which must all
// equal the wire reference) and the counts and timings the spans do not
// carry.
type staged struct {
	Doc       []byte // plan → extract → generate → serialize
	QueryDoc  []byte // Middleware.QueryTo, the same pipeline in one call
	StreamDoc []byte // Middleware.QueryToStream, the streaming composition
	DocLen    int    // len(Doc), kept once the documents are dropped

	MergeFree bool
	Fragments int
	Instances int
	// Pipeline is the time of the spans that compose the pipeline once
	// (cached plan, extract.all, generate, serialize); Query is QueryTo.
	Pipeline, Query time.Duration

	ExtractAllocs, GenerateAllocs, SerializeAllocs uint64
	FirstChunk                                     time.Duration
	HighWater                                      int

	result *instance.Result
}

// mallocs reads the process's cumulative allocation count exactly (the
// read flushes every per-P cache).
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// firstWriteRecorder notes when the first byte reached it.
type firstWriteRecorder struct {
	w     io.Writer
	start time.Time
	first time.Duration
}

func (f *firstWriteRecorder) Write(p []byte) (int, error) {
	if f.first == 0 && len(p) > 0 {
		f.first = time.Since(f.start)
	}
	return f.w.Write(p)
}

// stageQuery runs one query through the pipeline stage by stage, each
// call into a layer under its own span (children of parent). The staged
// composition uses the same calls Middleware.answer makes, so its bytes
// must equal the server's; the caller checks that.
func (s *system) stageQuery(ctx context.Context, log *spanLog, parent, opID int, query, formatName string) (*staged, error) {
	format, err := instance.ParseFormat(formatName)
	if err != nil {
		return nil, err
	}
	st := &staged{}
	in := func(name string, f func() error) (time.Duration, error) {
		i := log.begin(name, parent, opID)
		err := f()
		d := log.end(i)
		if err != nil {
			return d, fmt.Errorf("%s: %w", name, err)
		}
		return d, nil
	}

	// The query handler on its own, uncached; then the extraction schema
	// and the planner rewrite for its attribute list. The schema call
	// comes before anything that plans through the middleware, so after a
	// registration it is the call that refills the schema cache.
	// Extraction below repeats both internally (the rewrite from its
	// cache).
	var parsed *s2sql.Plan
	if _, err := in("s2sql.plan", func() (err error) {
		parsed, err = s2sql.ParseAndPlan(query, s.world.Ontology)
		return err
	}); err != nil {
		return nil, err
	}
	var plans []mapping.SourcePlan
	if _, err = in("mapping.schema", func() (err error) {
		plans, _, err = s.mw.Mappings().Schema(parsed.AttributeIDs())
		return err
	}); err != nil {
		return nil, err
	}
	in("planner.rewrite", func() error {
		planner.Rewrite(s.world.Ontology, s.mw.Mappings().ClassKeys(), parsed, plans)
		return nil
	})

	// The plan as the server obtains it: through the plan cache, with
	// the merge-free verdict.
	var plan *s2sql.Plan
	planTime, err := in("core.plan", func() (err error) {
		plan, st.MergeFree, err = s.mw.PlanMergeFree(ctx, query)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Per-kind extraction, one kind after another, then all at once. A
	// kind the world has no source of still runs, restricted to nothing:
	// what is left is the extraction stage's fixed cost.
	for _, k := range sourceKinds {
		if _, err := in("extract."+k.Name, func() error {
			_, err := s.mw.ExtractPlanSources(ctx, plan, s.byKind[k.Prefix])
			return err
		}); err != nil {
			return nil, err
		}
	}
	var rs *extract.ResultSet
	before := mallocs()
	extractTime, err := in("extract.all", func() (err error) {
		rs, err = s.mw.ExtractPlanSources(ctx, plan, s.sources)
		return err
	})
	if err != nil {
		return nil, err
	}
	st.ExtractAllocs = mallocs() - before
	st.Fragments = len(rs.Fragments)
	if len(rs.Errors) > 0 {
		return nil, fmt.Errorf("extract.all: %d source errors, first: %v", len(rs.Errors), rs.Errors[0])
	}

	before = mallocs()
	generateTime, err := in("instance.generate", func() (err error) {
		st.result, err = s.mw.Generator().GenerateOpts(plan, rs, instance.GenOptions{MergeFree: st.MergeFree})
		return err
	})
	if err != nil {
		return nil, err
	}
	st.GenerateAllocs = mallocs() - before
	st.Instances = len(st.result.Matched) + len(st.result.Related)

	var doc bytes.Buffer
	before = mallocs()
	serializeTime, err := in("instance.serialize", func() error {
		return s.mw.Generator().Serialize(&doc, st.result, format)
	})
	if err != nil {
		return nil, err
	}
	st.SerializeAllocs = mallocs() - before
	st.Doc = doc.Bytes()
	st.Pipeline = planTime + extractTime + generateTime + serializeTime

	// The streaming entry point in process: barrier-free when the plan
	// is merge-free and the format allows, behind the barrier otherwise.
	var out bytes.Buffer
	rec := &firstWriteRecorder{w: &out, start: time.Now()}
	if _, err := in("instance.stream", func() error {
		_, chunks, err := s.mw.QueryToStream(ctx, rec, query, format)
		st.HighWater = chunks.HighWater
		return err
	}); err != nil {
		return nil, err
	}
	st.FirstChunk = rec.first
	st.StreamDoc = out.Bytes()

	var whole bytes.Buffer
	if st.Query, err = in("core.query", func() error {
		_, err := s.mw.QueryTo(ctx, &whole, query, format)
		return err
	}); err != nil {
		return nil, err
	}
	st.QueryDoc = whole.Bytes()
	return st, nil
}

// serializeFormats times the staged query's result in every wire format,
// reps times each, and returns the median per format name.
func (s *system) serializeFormats(st *staged, reps int) (map[string]time.Duration, error) {
	out := map[string]time.Duration{}
	for _, name := range []string{"owl", "turtle", "ntriples", "json", "xml"} {
		format, err := instance.ParseFormat(name)
		if err != nil {
			return nil, err
		}
		times := make([]float64, reps)
		for i := range times {
			var buf bytes.Buffer
			start := time.Now()
			if err := s.mw.Generator().Serialize(&buf, st.result, format); err != nil {
				return nil, err
			}
			times[i] = float64(time.Since(start))
		}
		out[name] = time.Duration(quantile(sorted(times), 0.5))
	}
	return out, nil
}
