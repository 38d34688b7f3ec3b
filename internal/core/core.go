// Package core assembles the S2S middleware (paper Figure 1): the ontology
// schema, the mapping module, the extractor manager, the query handler, and
// the instance generator behind one facade. A Middleware answers S2SQL
// queries — the single point of entry — by planning the query against the
// ontology, extracting raw data from every mapped source, compiling the
// fragments into ontology instances, and serializing them (OWL by default).
package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strconv"
	"sync/atomic"
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
	// PlanCacheSize bounds the S2SQL plan cache (query string → compiled
	// plan); 0 uses DefaultPlanCacheSize, negative disables the cache.
	PlanCacheSize int
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
	stats   statsCounters
}

// Stats aggregates middleware activity.
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

// statsCounters is the race-safe accumulator behind Stats: plain atomics
// so concurrent Query calls and Stats snapshots never contend on a lock.
type statsCounters struct {
	queries      atomic.Int64
	instances    atomic.Int64
	sourceErrors atomic.Int64
	planNS       atomic.Int64
	extractNS    atomic.Int64
	generateNS   atomic.Int64
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
		plans:   newPlanCache(cfg.PlanCacheSize),
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

// invalidateCaches flushes every cache whose contents could be stale
// after a catalog mutation: the plan cache here and the extractor
// manager's compiled-rule and planner-rewrite caches. Called after each
// successful RegisterSource/RegisterMapping/SetClassKey so a remapped
// rule can never run code compiled or a plan rewritten under the old
// mapping.
func (m *Middleware) invalidateCaches() {
	m.plans.invalidate()
	m.manager.InvalidateCache()
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
		outcome := "ok"
		if err != nil {
			outcome = "error"
			root.SetAttr("error", err.Error())
		}
		root.SetAttr("outcome", outcome)
		m.metrics.Counter(obs.MetricQueryTotal, obs.Labels{"outcome": outcome}).Inc()
		m.metrics.Histogram(obs.MetricQueryDuration, nil).Observe(time.Since(start).Seconds())
		m.stats.queries.Add(1)
		if res != nil {
			m.metrics.Counter(obs.MetricInstances, nil).Add(uint64(len(res.Matched)))
			m.stats.instances.Add(int64(len(res.Matched)))
			m.stats.sourceErrors.Add(int64(len(res.Errors)))
			root.SetAttr("matched", strconv.Itoa(len(res.Matched)))
			root.SetAttr("source_errors", strconv.Itoa(len(res.Errors)))
		}
		root.End()
	}
}

// planQuery runs the traced parse-and-plan stage through the plan
// cache. Alongside the compiled plan it returns the planner's
// merge-free verdict, computed once per cache miss and cached with the
// plan (the cache flushes on every catalog mutation, so the verdict
// never outlives the state it was proved against).
func (m *Middleware) planQuery(ctx context.Context, query string) (*s2sql.Plan, bool, error) {
	planStart := time.Now()
	_, pspan, pdone := obs.StartStage(ctx, "parse_plan")
	entry, ok := m.plans.get(query)
	if ok {
		pspan.SetAttr("plan_cache", "hit")
	} else {
		pspan.SetAttr("plan_cache", "miss")
		plan, err := s2sql.ParseAndPlan(query, m.ont)
		if err != nil {
			pdone()
			m.stats.planNS.Add(int64(time.Since(planStart)))
			return nil, false, err
		}
		entry = cachedPlan{plan: plan, mergeFree: m.proveMergeFree(plan)}
		m.plans.put(query, entry)
	}
	pdone()
	m.stats.planNS.Add(int64(time.Since(planStart)))
	pspan.SetAttr("attributes", strconv.Itoa(len(entry.plan.AttributeIDs())))
	pspan.SetAttr("merge_free", strconv.FormatBool(entry.mergeFree))
	return entry.plan, entry.mergeFree, nil
}

// proveMergeFree runs the planner's merge-free proof over the plan's
// unrewritten extraction schema and counts the outcome
// (s2s_planner_mergefree_total). A schema error declines conservatively;
// extraction will surface the error itself.
func (m *Middleware) proveMergeFree(plan *s2sql.Plan) bool {
	verdict := planner.MergeFreeVerdict{Outcome: planner.MergeFreeUnmappedAttr, Detail: "schema unavailable"}
	if plans, _, err := m.repo.Schema(plan.AttributeIDs()); err == nil {
		verdict = planner.ProveMergeFree(m.ont, m.repo.ClassKeys(), plans)
	}
	m.metrics.Counter(obs.MetricPlannerMergeFree, obs.Labels{"outcome": verdict.Outcome}).Inc()
	return verdict.OK
}

// run is the one query pipeline every entry point goes through: open the
// trace root, parse and plan (query handler), run body — one of the two
// execution strategies, materialized or eager, plus any serialization —
// and stamp the outcome, metrics and stats on the way out.
func (m *Middleware) run(ctx context.Context, query string, body func(ctx context.Context, plan *s2sql.Plan, mergeFree bool) (*instance.Result, error)) (*instance.Result, error) {
	ctx, finish := m.beginQuery(ctx, query)
	var res *instance.Result
	plan, mergeFree, err := m.planQuery(ctx, query)
	if err == nil {
		res, err = body(ctx, plan, mergeFree)
	}
	finish(res, err)
	return res, err
}

// materialize is the materialized strategy: extract everything
// (extractor manager), then generate (instance generator). Extraction
// does not go through extract.Stream here: a source's fragments are
// complete before they could be windowed, and the generator needs every
// instance before it can merge, link and order, so a channel hand-off
// would release nothing early.
func (m *Middleware) materialize(ctx context.Context, plan *s2sql.Plan, mergeFree bool, extractFn func(context.Context, *s2sql.Plan) (*extract.ResultSet, error)) (*instance.Result, error) {
	rs, err := extractFn(ctx, plan)
	if err != nil {
		return nil, err
	}
	m.stats.extractNS.Add(int64(rs.Stats.SchemaDuration + rs.Stats.ExtractDuration))
	genStart := time.Now()
	res, err := m.gen.GenerateContextOpts(ctx, plan, rs, instance.GenOptions{MergeFree: mergeFree})
	m.stats.generateNS.Add(int64(time.Since(genStart)))
	return res, err
}

// PlanMergeFree parses and plans a query through the plan cache without
// running it, and reports the planner's merge-free verdict for the query
// (cached with the plan). The cluster coordinator uses it to learn the
// query's attribute set — and from it the owning nodes — before any
// extraction happens; the later QueryWithExtractor call replans through
// the same cache, so the work is paid once. The transport's stream
// endpoint uses the verdict to decide, before the response headers go
// out, whether the body will be emitted barrier-free.
func (m *Middleware) PlanMergeFree(ctx context.Context, query string) (*s2sql.Plan, bool, error) {
	ctx = obs.ContextWithMetrics(ctx, m.metrics)
	return m.planQuery(ctx, query)
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
// QueryWithExtractor.
func (m *Middleware) ExtractPlanSources(ctx context.Context, plan *s2sql.Plan, sources []string) (*extract.ResultSet, error) {
	ctx = obs.ContextWithMetrics(ctx, m.metrics)
	return m.manager.ExtractQuerySources(ctx, plan, sources)
}

// QueryWithExtractor answers one S2SQL query like Query, but with the
// extraction stage supplied by the caller: extractFn receives the
// planned query and must return the complete result set (canonically
// sorted, failovers marked). The cluster coordinator injects its
// scatter-gather merge here, so planning, instance generation,
// tracing, and metrics are exactly the single-node pipeline — which is
// what keeps clustered answers byte-identical.
func (m *Middleware) QueryWithExtractor(ctx context.Context, query string, extractFn func(context.Context, *s2sql.Plan) (*extract.ResultSet, error)) (*instance.Result, error) {
	return m.run(ctx, query, func(ctx context.Context, plan *s2sql.Plan, mergeFree bool) (*instance.Result, error) {
		return m.materialize(ctx, plan, mergeFree, extractFn)
	})
}

// Query answers one S2SQL query: parse and plan (query handler), extract
// (extractor manager), generate (instance generator). The full pipeline
// is traced; the completed span tree is retained by Tracer. ExtractQuery
// hands the full plan to the extractor so the query planner
// (internal/planner) can push the WHERE conditions toward the sources;
// the instance generator re-applies them regardless.
func (m *Middleware) Query(ctx context.Context, query string) (*instance.Result, error) {
	return m.QueryWithExtractor(ctx, query, m.manager.ExtractQuery)
}

// QueryTo answers a query and serializes the result to w in the given
// format as one whole-document write; serialization is part of the
// query's trace.
func (m *Middleware) QueryTo(ctx context.Context, w io.Writer, query string, format instance.Format) (*instance.Result, error) {
	res, err := m.run(ctx, query, func(ctx context.Context, plan *s2sql.Plan, mergeFree bool) (*instance.Result, error) {
		res, err := m.materialize(ctx, plan, mergeFree, m.manager.ExtractQuery)
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
// barrier-free: instances stream out as extraction windows close, so
// the first instance reaches w while slower sources are still
// extracting; otherwise the query is materialized and the document
// leaves in chunks afterwards. The bytes are identical either way, and
// identical to QueryTo's. The result and chunk statistics are returned
// alongside any error; a serialization error may surface after part of
// the body was already written, which is why the transport signals
// completion in trailers.
func (m *Middleware) QueryToStream(ctx context.Context, w io.Writer, query string, format instance.Format) (*instance.Result, instance.ChunkStats, error) {
	var stats instance.ChunkStats
	res, err := m.run(ctx, query, func(ctx context.Context, plan *s2sql.Plan, mergeFree bool) (*instance.Result, error) {
		if !m.EagerStream(mergeFree, format) {
			res, err := m.materialize(ctx, plan, mergeFree, m.manager.ExtractQuery)
			if err != nil {
				return nil, err
			}
			stats, err = m.gen.SerializeChunked(ctx, w, res, format)
			return res, err
		}
		st, err := m.manager.ExtractQueryStream(ctx, plan)
		if err != nil {
			return nil, err
		}
		// Extraction overlaps generation on this path, so the generate
		// time includes waiting on windows; the extract time comes from
		// the stream's tail, which GenerateEager leaves complete.
		genStart := time.Now()
		var res *instance.Result
		res, stats, err = m.gen.GenerateEager(ctx, plan, st, w, format)
		m.stats.generateNS.Add(int64(time.Since(genStart)))
		tail := st.Tail()
		m.stats.extractNS.Add(int64(tail.Stats.SchemaDuration + tail.Stats.ExtractDuration))
		return res, err
	})
	return res, stats, err
}

// QueryString answers a query and returns the serialized result.
func (m *Middleware) QueryString(ctx context.Context, query string, format instance.Format) (string, error) {
	var buf bytes.Buffer
	if _, err := m.QueryTo(ctx, &buf, query, format); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// Generator exposes the instance generator (for custom serialization).
func (m *Middleware) Generator() *instance.Generator { return m.gen }

// SourceHealth returns per-source circuit breaker state (nil when the
// breaker is disabled in the extract options).
func (m *Middleware) SourceHealth() []extract.SourceHealth {
	return m.manager.Health()
}

// Stats returns a snapshot of cumulative statistics. Safe to call
// concurrently with Query.
func (m *Middleware) Stats() Stats {
	return Stats{
		Queries:      int(m.stats.queries.Load()),
		Instances:    int(m.stats.instances.Load()),
		SourceErrors: int(m.stats.sourceErrors.Load()),
		PlanTime:     time.Duration(m.stats.planNS.Load()),
		ExtractTime:  time.Duration(m.stats.extractNS.Load()),
		GenerateTime: time.Duration(m.stats.generateNS.Load()),
	}
}
