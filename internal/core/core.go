// Package core assembles the S2S middleware (paper Figure 1): the ontology
// schema, the mapping module, the extractor manager, the query handler, and
// the instance generator behind one facade. A Middleware answers S2SQL
// queries — the single point of entry — by planning the query against the
// ontology, extracting raw data from every mapped source, compiling the
// fragments into ontology instances, and serializing them (OWL by default).
package core

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"repro/internal/datasource"
	"repro/internal/extract"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/planner"
	"repro/internal/s2sql"
)

// Config configures a Middleware.
type Config struct {
	// Ontology is the shared domain schema. Required.
	Ontology *ontology.Ontology
	// Backends resolve registered sources to content. Required for queries
	// to extract anything.
	Backends extract.Backends
	// Extract tunes the extractor manager.
	Extract extract.Options
	// TraceCapacity bounds the in-memory ring of completed query traces;
	// 0 uses obs.DefaultTraceCapacity.
	TraceCapacity int
}

// Middleware is the S2S middleware instance.
type Middleware struct {
	ont     *ontology.Ontology
	sources *datasource.Registry
	repo    *mapping.Repository
	manager *extract.Manager
	gen     *instance.Generator
	plans   *planCache

	tracer  *obs.Tracer
	metrics *obs.Registry
}

// Stats aggregates middleware activity. It is read from the metrics
// registry (see Middleware.Stats), the one record of it.
type Stats struct {
	// Queries is the number of Query calls served (failures included).
	Queries int
	// Instances is the total matched instances returned.
	Instances int
	// SourceErrors is the total per-source errors observed.
	SourceErrors int
	// ExtractTime accumulates extractor time across queries.
	ExtractTime time.Duration
	// PlanTime accumulates query-handling time across queries.
	PlanTime time.Duration
	// GenerateTime accumulates instance-generation time across queries.
	GenerateTime time.Duration
}

// New builds a middleware from a configuration.
func New(cfg Config) (*Middleware, error) {
	if cfg.Ontology == nil {
		return nil, fmt.Errorf("core: Config.Ontology is required")
	}
	if err := cfg.Ontology.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	sources := datasource.NewRegistry()
	repo := mapping.NewRepository(cfg.Ontology, sources)
	return &Middleware{
		ont:     cfg.Ontology,
		sources: sources,
		repo:    repo,
		manager: extract.NewManager(repo, cfg.Backends, cfg.Extract),
		gen:     instance.NewGenerator(cfg.Ontology, repo),
		plans:   newPlanCache(),
		tracer:  obs.NewTracer(cfg.TraceCapacity),
		metrics: obs.NewRegistry(),
	}, nil
}

// NewWithCatalog builds a middleware whose backends read from an in-process
// source catalog — the common construction for examples and tests.
func NewWithCatalog(ont *ontology.Ontology, catalog *datasource.Catalog, opts extract.Options) (*Middleware, error) {
	return New(Config{Ontology: ont, Backends: extract.FromCatalog(catalog), Extract: opts})
}

// Ontology returns the middleware's ontology.
func (m *Middleware) Ontology() *ontology.Ontology { return m.ont }

// Sources returns the data source registry.
func (m *Middleware) Sources() *datasource.Registry { return m.sources }

// Mappings returns the attribute repository.
func (m *Middleware) Mappings() *mapping.Repository { return m.repo }

// Tracer returns the middleware's query tracer (the ring of completed
// span trees behind GET /trace/last and s2s-query -trace).
func (m *Middleware) Tracer() *obs.Tracer { return m.tracer }

// Metrics returns the middleware's metrics registry (behind GET /metrics).
func (m *Middleware) Metrics() *obs.Registry { return m.metrics }

// RegisterSource adds a data source definition (paper §2.3.2). It
// leaves the plan cache warm: source IDs are unique and a mapping can
// only name a registered source, so no cached schema can mention a
// source registered after it was built. The RegisterMapping that puts
// the source to use flushes.
func (m *Middleware) RegisterSource(def datasource.Definition) error {
	return m.sources.Register(def)
}

// RegisterMapping adds an attribute mapping (paper §2.3.1). It flushes
// the plan cache, the only cache derived from the mappings, so a query
// can never run a schema or a merge-free verdict derived under the old
// mapping. (Compiled rules are keyed by their text, so a remapped rule
// compiles afresh without any flush.)
func (m *Middleware) RegisterMapping(e mapping.Entry) error {
	if err := m.repo.Register(e); err != nil {
		return err
	}
	m.plans.invalidate()
	return nil
}

// SetClassKey declares the cross-source identity attribute of a class.
// Like RegisterMapping it flushes the plan cache: a class key changes
// the merge-free verdict.
func (m *Middleware) SetClassKey(class, attributeID string) error {
	if err := m.repo.SetClassKey(class, attributeID); err != nil {
		return err
	}
	m.plans.invalidate()
	return nil
}

// PlanCacheLen reports the number of cached query plans (introspection
// for tests and the ops surface).
func (m *Middleware) PlanCacheLen() int { return m.plans.len() }

// beginQuery opens the query's trace root (joining any trace already
// active in ctx), injects the metrics registry, and returns the finish
// callback that stamps the outcome, records query metrics, and ends the
// root span.
func (m *Middleware) beginQuery(ctx context.Context, query string) (context.Context, func(*instance.Result, error)) {
	ctx = obs.ContextWithMetrics(ctx, m.metrics)
	ctx, root := m.tracer.StartTrace(ctx, "query")
	root.SetAttr("query", query)
	start := time.Now()
	return ctx, func(res *instance.Result, err error) {
		outcome := obs.OutcomeOK
		if err != nil {
			outcome = obs.OutcomeError
			root.SetAttr("error", err.Error())
		}
		root.SetAttr("outcome", outcome)
		m.metrics.Counter(obs.MetricQueryTotal, obs.Labels{"outcome": outcome}).Inc()
		m.metrics.Histogram(obs.MetricQueryDuration, nil).Observe(time.Since(start).Seconds())
		if res != nil {
			m.metrics.Counter(obs.MetricInstances, nil).Add(uint64(len(res.Matched)))
			m.metrics.Counter(obs.MetricAnswerErrors, nil).Add(uint64(len(res.Errors)))
			root.SetAttr("matched", strconv.Itoa(len(res.Matched)))
			root.SetAttr("source_errors", strconv.Itoa(len(res.Errors)))
		}
		root.End()
	}
}

// planQuery runs the traced parse-and-plan stage through the plan
// cache. A miss also derives the query's extraction schema (its
// "extraction_schema" span nests under parse_plan) and the merge-free
// verdict, both cached with the plan.
func (m *Middleware) planQuery(ctx context.Context, query string) (*prepared, error) {
	pctx, pspan, pdone := obs.StartStage(ctx, "parse_plan")
	p, gen := m.plans.get(query)
	if p != nil {
		pspan.SetAttr("plan_cache", "hit")
	} else {
		pspan.SetAttr("plan_cache", "miss")
		plan, err := s2sql.ParseAndPlan(query, m.ont)
		if err != nil {
			pdone()
			return nil, err
		}
		p = m.plans.put(query, gen, m.prepare(pctx, plan))
	}
	pdone()
	pspan.SetAttr("attributes", strconv.Itoa(len(p.plan.AttributeIDs())))
	pspan.SetAttr("merge_free", strconv.FormatBool(p.mergeFree))
	return p, nil
}

// prepare derives a plan's extraction schema and runs the planner's
// merge-free proof over its unrewritten source plans, counting the
// outcome (s2s_planner_mergefree_total). A schema error declines
// conservatively; extraction reports the error itself.
func (m *Middleware) prepare(ctx context.Context, plan *s2sql.Plan) *prepared {
	p := &prepared{plan: plan}
	p.schema, p.schemaErr = m.manager.Schema(ctx, plan)
	verdict := planner.MergeFreeVerdict{Outcome: planner.MergeFreeUnmappedAttr, Detail: "schema unavailable"}
	if p.schemaErr == nil {
		verdict = planner.ProveMergeFree(m.ont, m.repo.ClassKeys(), p.schema.Base)
	}
	m.metrics.Counter(obs.MetricPlannerMergeFree, obs.Labels{"outcome": verdict.Outcome}).Inc()
	p.mergeFree = verdict.OK
	return p
}

// Request is one query for Answer. Its fields carry the choices the
// Query* wrappers make by their names — what to serialize, whether to
// stream, who extracts — and none of them tunes the pipeline.
type Request struct {
	// Query is the S2SQL query.
	Query string
	// Format is the serialization format; read only when Answer has a
	// sink.
	Format instance.Format
	// Stream serializes in bounded chunks (SerializeChunked) instead of
	// one whole-document write, and emits barrier-free when the planner
	// proved the query merge-free and the format is instance-incremental
	// (instance.EagerFormat). /query/stream and every /query/batch
	// member (QueryBatchTo) are streamed requests.
	Stream bool
	// Extract, when non-nil, replaces the extraction stage: it receives
	// the query's extraction schema and must return the complete result
	// set (canonically sorted, failovers marked). The cluster
	// coordinator passes its scatter-gather here, and QueryBatchTo each
	// member's slice of the batch scatter, so planning, generation,
	// serialization, tracing and metrics are exactly the single-node
	// pipeline — which is what keeps clustered and batched answers
	// byte-identical. Such a request is always materialized.
	Extract func(context.Context, *extract.Schema) (*extract.ResultSet, error)
}

// Sink receives an answer's serialized document.
type Sink struct {
	// W receives the document's bytes.
	W io.Writer
	// Begin, when non-nil, is called at most once, before the first byte
	// reaches W, and is how the caller learns the emission mode before
	// committing to it (the transport sets its response headers here).
	// On the materialized path res is the generated result, so its
	// counts are known, and Begin runs before serialization starts even
	// if the document is empty. On the eager path res is nil and Begin
	// runs on the first write, so a failure before any byte leaves it
	// uncalled. An error from Begin fails the answer.
	Begin func(res *instance.Result) error
}

// Answer is the one query pipeline every entry point goes through: it
// opens the query's trace root, parses and plans (query handler),
// extracts (extractor manager), generates (instance generator) and,
// when sink is non-nil, serializes into it. Every stage is a child of
// that root, and s2s_query_duration_seconds covers them all.
//
// Extraction runs the query's cached schema, which the query planner
// (internal/planner) rewrote to push the WHERE conditions toward the
// sources; the instance generator re-applies them regardless. A
// streamed request whose query the planner proved merge-free, in a
// format that allows it, is emitted barrier-free: each source's
// instances stream out as the source finishes (instance.GenerateEager
// is the extraction run's sink), so the first instance reaches the sink
// while slower sources are still extracting. Every other request is
// materialized, then serialized. The bytes are identical either way.
//
// The result and chunk statistics are returned alongside any error; a
// serialization error may surface after part of the document was
// already written, which is why the transport signals completion in
// trailers.
func (m *Middleware) Answer(ctx context.Context, req Request, sink *Sink) (res *instance.Result, stats instance.ChunkStats, err error) {
	ctx, finish := m.beginQuery(ctx, req.Query)
	p, err := m.planQuery(ctx, req.Query)
	if err == nil {
		res, stats, err = m.answer(ctx, p, req, sink)
	}
	finish(res, err)
	return res, stats, err
}

// answer runs a planned request by one of the two execution strategies,
// chosen here and nowhere else from the cached merge-free verdict and
// the format. The instance generator takes no context, so the generate
// and serialize stages are opened here (materialize, eager, and the
// serialize stage below).
func (m *Middleware) answer(ctx context.Context, p *prepared, req Request, sink *Sink) (res *instance.Result, stats instance.ChunkStats, err error) {
	if sink != nil && req.Stream && req.Extract == nil && p.mergeFree && instance.EagerFormat(req.Format) {
		return m.eager(ctx, p, req.Format, sink)
	}
	extractFn := req.Extract
	if extractFn == nil {
		extractFn = m.manager.ExtractQuery
	}
	if res, err = m.materialize(ctx, p, extractFn); err != nil || sink == nil {
		return res, stats, err
	}
	if sink.Begin != nil {
		if err = sink.Begin(res); err != nil {
			return res, stats, err
		}
	}
	_, span, done := obs.StartStage(ctx, "serialize")
	defer done()
	span.SetAttr("format", req.Format.String())
	if !req.Stream {
		return res, stats, m.gen.Serialize(sink.W, res, req.Format)
	}
	stats, err = m.gen.SerializeChunked(sink.W, res, req.Format)
	span.SetAttr("chunks", strconv.Itoa(stats.Chunks))
	return res, stats, err
}

// materialize is the materialized strategy: extract everything
// (extractor manager), then generate (instance generator), which needs
// every instance before it can merge, link and order.
func (m *Middleware) materialize(ctx context.Context, p *prepared, extractFn func(context.Context, *extract.Schema) (*extract.ResultSet, error)) (*instance.Result, error) {
	if p.schemaErr != nil {
		return nil, p.schemaErr
	}
	rs, err := extractFn(ctx, p.schema)
	if err != nil {
		return nil, err
	}
	_, span, done := obs.StartStage(ctx, "generate")
	defer done()
	res, err := m.gen.GenerateOpts(p.plan, rs, instance.GenOptions{MergeFree: p.mergeFree})
	if err == nil {
		span.SetAttr("matched", strconv.Itoa(len(res.Matched)))
		span.SetAttr("related", strconv.Itoa(len(res.Related)))
	}
	return res, err
}

// eager is the barrier-free strategy: generation and serialization are
// the extraction run's per-source sink, recorded as one generate stage
// (eager=true) with no separate serialize stage. Extraction runs inside
// generation on this path, so the generate time includes waiting on
// sources. The extraction run takes the query's ctx, keeping its span a
// sibling of generate's.
func (m *Middleware) eager(ctx context.Context, p *prepared, format instance.Format, sink *Sink) (*instance.Result, instance.ChunkStats, error) {
	sources := make([]string, len(p.schema.Plans))
	for i, sp := range p.schema.Plans {
		sources[i] = sp.Source.ID
	}
	sort.Strings(sources)
	_, span, done := obs.StartStage(ctx, "generate")
	defer done()
	span.SetAttr("eager", "true")
	w := &beginWriter{w: sink.W, begin: sink.Begin}
	res, stats, err := m.gen.GenerateEager(p.plan, sources, w, format, func(deliver func(string, []extract.Fragment)) (*extract.ResultSet, error) {
		return m.manager.ExtractQueryEach(ctx, p.schema, deliver)
	})
	if err == nil {
		span.SetAttr("matched", strconv.Itoa(len(res.Matched)))
		span.SetAttr("chunks", strconv.Itoa(stats.Chunks))
	}
	return res, stats, err
}

// beginWriter calls the eager path's Sink.Begin, if any, before the
// first byte reaches w.
type beginWriter struct {
	w     io.Writer
	begin func(*instance.Result) error
}

func (b *beginWriter) Write(p []byte) (int, error) {
	if b.begin != nil && len(p) > 0 {
		begin := b.begin
		b.begin = nil
		if err := begin(nil); err != nil {
			return 0, err
		}
	}
	return b.w.Write(p)
}

// PlanMergeFree parses and plans a query through the plan cache without
// running it, and reports the planner's merge-free verdict for the query
// (cached with the plan). Cluster nodes plan a sub-request's query with
// it before ExtractPlanSources, which finds the plan's cached schema.
func (m *Middleware) PlanMergeFree(ctx context.Context, query string) (*s2sql.Plan, bool, error) {
	ctx = obs.ContextWithMetrics(ctx, m.metrics)
	p, err := m.planQuery(ctx, query)
	if err != nil {
		return nil, false, err
	}
	return p.plan, p.mergeFree, nil
}

// ExtractPlanSources runs the extraction stage for an already-planned
// query restricted to the given source IDs (see
// extract.Manager.ExtractQuerySources). Cluster nodes call it to
// extract exactly the sources they own; the coordinator merges the
// per-node result sets and finishes the pipeline through Answer's
// Request.Extract. A plan from PlanMergeFree runs on its cached
// schema; any other plan — one a catalog mutation flushed since, say —
// has its schema derived for this call only.
func (m *Middleware) ExtractPlanSources(ctx context.Context, plan *s2sql.Plan, sources []string) (*extract.ResultSet, error) {
	ctx = obs.ContextWithMetrics(ctx, m.metrics)
	var s *extract.Schema
	var err error
	if p := m.plans.lookup(plan); p != nil {
		s, err = p.schema, p.schemaErr
	} else {
		s, err = m.manager.Schema(ctx, plan)
	}
	if err != nil {
		return nil, err
	}
	return m.manager.ExtractQuerySources(ctx, s, sources)
}

// Query answers one S2SQL query without serializing it.
func (m *Middleware) Query(ctx context.Context, query string) (*instance.Result, error) {
	res, _, err := m.Answer(ctx, Request{Query: query}, nil)
	return res, err
}

// QueryTo answers a query and serializes the result to w in the given
// format as one whole-document write.
func (m *Middleware) QueryTo(ctx context.Context, w io.Writer, query string, format instance.Format) (*instance.Result, error) {
	res, _, err := m.Answer(ctx, Request{Query: query, Format: format}, &Sink{W: w})
	return res, err
}

// QueryToStream answers a query and serializes the result to w in
// bounded chunks, barrier-free when the query allows it (see Answer).
func (m *Middleware) QueryToStream(ctx context.Context, w io.Writer, query string, format instance.Format) (*instance.Result, instance.ChunkStats, error) {
	return m.Answer(ctx, Request{Query: query, Format: format, Stream: true}, &Sink{W: w})
}

// Generator exposes the instance generator (for custom serialization).
func (m *Middleware) Generator() *instance.Generator { return m.gen }

// SourceHealth returns per-source circuit breaker state (nil when the
// breaker is disabled in the extract options).
func (m *Middleware) SourceHealth() []extract.SourceHealth {
	return m.manager.Health()
}

// Stats returns a snapshot of cumulative statistics, read from the
// metrics registry: the query outcome counter, the instance and answer
// error counters, and the sums of the parse_plan, extract and generate
// stage histograms. The read creates no series, so it leaves GET
// /metrics unchanged. Safe to call concurrently with Query.
func (m *Middleware) Stats() Stats {
	count := func(name string, labels obs.Labels) int {
		c, _ := m.metrics.Lookup(name, labels)
		return int(c.Value())
	}
	stage := func(name string) time.Duration {
		_, h := m.metrics.Lookup(obs.MetricStageDuration, obs.Labels{"stage": name})
		return time.Duration(h.Sum() * float64(time.Second))
	}
	return Stats{
		Queries: count(obs.MetricQueryTotal, obs.Labels{"outcome": obs.OutcomeOK}) +
			count(obs.MetricQueryTotal, obs.Labels{"outcome": obs.OutcomeError}),
		Instances:    count(obs.MetricInstances, nil),
		SourceErrors: count(obs.MetricAnswerErrors, nil),
		PlanTime:     stage("parse_plan"),
		ExtractTime:  stage("extract"),
		GenerateTime: stage("generate"),
	}
}
