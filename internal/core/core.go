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

// RegisterSource adds a data source definition (paper §2.3.2).
func (m *Middleware) RegisterSource(def datasource.Definition) error {
	if err := m.sources.Register(def); err != nil {
		return err
	}
	m.invalidateCaches()
	return nil
}

// RegisterMapping adds an attribute mapping (paper §2.3.1).
func (m *Middleware) RegisterMapping(e mapping.Entry) error {
	if err := m.repo.Register(e); err != nil {
		return err
	}
	m.invalidateCaches()
	return nil
}

// SetClassKey declares the cross-source identity attribute of a class.
func (m *Middleware) SetClassKey(class, attributeID string) error {
	if err := m.repo.SetClassKey(class, attributeID); err != nil {
		return err
	}
	m.invalidateCaches()
	return nil
}

// invalidateCaches flushes the plan cache, the only cache derived from
// the catalog. Called after each successful RegisterSource/
// RegisterMapping/SetClassKey so a query can never run a schema or a
// merge-free verdict derived under the old mapping. (Compiled rules are
// keyed by their text, so a remapped rule compiles afresh without any
// flush.)
func (m *Middleware) invalidateCaches() {
	m.plans.invalidate()
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

// run is the one query pipeline every entry point goes through: open the
// trace root, parse and plan (query handler), run body — one of the two
// execution strategies, materialized or eager, plus any serialization —
// and stamp the outcome and metrics on the way out.
func (m *Middleware) run(ctx context.Context, query string, body func(ctx context.Context, p *prepared) (*instance.Result, error)) (*instance.Result, error) {
	ctx, finish := m.beginQuery(ctx, query)
	var res *instance.Result
	p, err := m.planQuery(ctx, query)
	if err == nil {
		res, err = body(ctx, p)
	}
	finish(res, err)
	return res, err
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
	return m.gen.GenerateContextOpts(ctx, p.plan, rs, instance.GenOptions{MergeFree: p.mergeFree})
}

// PlanMergeFree parses and plans a query through the plan cache without
// running it, and reports the planner's merge-free verdict for the query
// (cached with the plan). Cluster nodes plan a sub-request's query with
// it before ExtractPlanSources, which finds the plan's cached schema.
// The transport's stream endpoint uses the verdict to decide, before
// the response headers go out, whether the body will be emitted
// barrier-free.
func (m *Middleware) PlanMergeFree(ctx context.Context, query string) (*s2sql.Plan, bool, error) {
	ctx = obs.ContextWithMetrics(ctx, m.metrics)
	p, err := m.planQuery(ctx, query)
	if err != nil {
		return nil, false, err
	}
	return p.plan, p.mergeFree, nil
}

// EagerStream reports whether QueryToStream will emit barrier-free for
// a query with the given merge-free verdict in the given format: the
// proof must hold and the format's serialization must be
// instance-incremental (instance.EagerFormat). It is the only thing
// that selects between the two execution strategies, and both inputs
// are observed, not configured. The transport calls it with
// PlanMergeFree's verdict to choose the stream-mode header before the
// response commits.
func (m *Middleware) EagerStream(mergeFree bool, format instance.Format) bool {
	return mergeFree && instance.EagerFormat(format)
}

// ExtractPlanSources runs the extraction stage for an already-planned
// query restricted to the given source IDs (see
// extract.Manager.ExtractQuerySources). Cluster nodes call it to
// extract exactly the sources they own; the coordinator merges the
// per-node result sets and finishes the pipeline via
// QueryWithExtractor. A plan from PlanMergeFree runs on its cached
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

// QueryWithExtractor answers one S2SQL query like Query, but with the
// extraction stage supplied by the caller: extractFn receives the
// query's extraction schema and must return the complete result set
// (canonically sorted, failovers marked). The cluster coordinator injects its
// scatter-gather merge here, so planning, instance generation,
// tracing, and metrics are exactly the single-node pipeline — which is
// what keeps clustered answers byte-identical.
func (m *Middleware) QueryWithExtractor(ctx context.Context, query string, extractFn func(context.Context, *extract.Schema) (*extract.ResultSet, error)) (*instance.Result, error) {
	return m.run(ctx, query, func(ctx context.Context, p *prepared) (*instance.Result, error) {
		return m.materialize(ctx, p, extractFn)
	})
}

// Query answers one S2SQL query: parse and plan (query handler), extract
// (extractor manager), generate (instance generator). The full pipeline
// is traced; the completed span tree is retained by Tracer. Extraction
// runs the query's cached schema, which the query planner
// (internal/planner) rewrote to push the WHERE conditions toward the
// sources; the instance generator re-applies them regardless.
func (m *Middleware) Query(ctx context.Context, query string) (*instance.Result, error) {
	return m.QueryWithExtractor(ctx, query, m.manager.ExtractQuery)
}

// QueryTo answers a query and serializes the result to w in the given
// format as one whole-document write; serialization is part of the
// query's trace.
func (m *Middleware) QueryTo(ctx context.Context, w io.Writer, query string, format instance.Format) (*instance.Result, error) {
	res, err := m.run(ctx, query, func(ctx context.Context, p *prepared) (*instance.Result, error) {
		res, err := m.materialize(ctx, p, m.manager.ExtractQuery)
		if err != nil {
			return nil, err
		}
		return res, m.gen.SerializeContext(ctx, w, res, format)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// QueryToStream answers a query and serializes the result to w in
// bounded chunks — the transport's /query/stream endpoint hands it an
// http.Flusher-backed writer so every chunk reaches the wire as a
// chunked-transfer frame. When the planner proved the query merge-free
// and the format supports it (EagerStream), the body is emitted
// barrier-free: each source's instances stream out as the source
// finishes (instance.GenerateEager is the extraction run's sink), so the
// first instance reaches w while slower sources are still extracting;
// otherwise the query is materialized and the document leaves in chunks
// afterwards. The bytes are identical either way, and
// identical to QueryTo's. The result and chunk statistics are returned
// alongside any error; a serialization error may surface after part of
// the body was already written, which is why the transport signals
// completion in trailers.
func (m *Middleware) QueryToStream(ctx context.Context, w io.Writer, query string, format instance.Format) (*instance.Result, instance.ChunkStats, error) {
	var stats instance.ChunkStats
	res, err := m.run(ctx, query, func(ctx context.Context, p *prepared) (*instance.Result, error) {
		if !m.EagerStream(p.mergeFree, format) {
			res, err := m.materialize(ctx, p, m.manager.ExtractQuery)
			if err != nil {
				return nil, err
			}
			stats, err = m.gen.SerializeChunked(ctx, w, res, format)
			return res, err
		}
		sources := make([]string, len(p.schema.Plans))
		for i, sp := range p.schema.Plans {
			sources[i] = sp.Source.ID
		}
		sort.Strings(sources)
		// Extraction runs inside generation on this path, so the generate
		// time includes waiting on sources. The extraction run takes the
		// query's ctx, keeping its span a sibling of generate's.
		var res *instance.Result
		var err error
		res, stats, err = m.gen.GenerateEager(ctx, p.plan, sources, w, format, func(deliver func(string, []extract.Fragment)) (*extract.ResultSet, error) {
			return m.manager.ExtractQueryEach(ctx, p.schema, deliver)
		})
		return res, err
	})
	return res, stats, err
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
