// Package extract implements the S2S Extractor Manager (paper §2.4), "the
// main section of the S2S middleware". Given the attribute list the query
// handler produced, it executes the four-step extraction process of Figure 5:
//
//  1. Know what data to extract — the attribute list (input).
//  2. Obtain extraction schema — the attribute repository returns each
//     attribute's extraction rules.
//  3. Obtain data source information — each rule's source definition is
//     fetched from the data source repository.
//  4. Extract data — a specific extractor is delegated per data source type
//     (web wrapper, database extractor, XPath extractor, text extractor),
//     rules are executed, and the raw data fragments are handed to the
//     instance generator.
//
// The paper is silent about concurrency; like its Extractor Manager, this
// implementation hands each data source to one extractor. Sources fan out
// with bounded parallelism, each running its rules one after another in
// entry order, with per-source timeouts and bounded retries, and per-source
// failures are reported without aborting the whole extraction (autonomous
// sources fail independently).
package extract

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"math/rand"

	"repro/internal/datasource"
	"repro/internal/htmldoc"
	"repro/internal/mapping"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/reldb"
	"repro/internal/s2sql"
	"repro/internal/textsrc"
	"repro/internal/webl"
	"repro/internal/xmlpath"
)

// Fragment is one chunk of extracted raw data: the values one rule produced
// for one attribute from one source, in record order.
type Fragment struct {
	AttributeID string
	SourceID    string
	Scenario    mapping.Scenario
	Values      []string
}

// SourceError records one extraction failure. Failures are data, not
// aborts: the instance generator reports them alongside the instances it
// could build (paper §2.6).
type SourceError struct {
	SourceID    string
	AttributeID string
	Err         error
	// Failover reports that every attribute this failure cost was still
	// served by at least one alternate source mapped to it, so the query
	// lost redundancy, not data.
	Failover bool
}

func (e SourceError) Error() string {
	suffix := ""
	if e.Failover {
		suffix = " (failover: attribute served by an alternate source)"
	}
	if e.AttributeID != "" {
		return fmt.Sprintf("source %s, attribute %s: %v%s", e.SourceID, e.AttributeID, e.Err, suffix)
	}
	return fmt.Sprintf("source %s: %v%s", e.SourceID, e.Err, suffix)
}

// Unwrap exposes the underlying error.
func (e SourceError) Unwrap() error { return e.Err }

// Stats describes one extraction run.
type Stats struct {
	// SourcesContacted is the number of data sources extraction ran
	// against.
	SourcesContacted int
	// ValuesExtracted counts raw values across all fragments.
	ValuesExtracted int
	// Retries counts rule re-executions after transient failures.
	Retries int
}

// ResultSet is the raw output of one extraction run.
type ResultSet struct {
	// Fragments hold the extracted values, ordered by attribute then source.
	Fragments []Fragment
	// Errors lists per-source failures.
	Errors []SourceError
	// Missing lists requested attributes that have no mapping.
	Missing []string
	// Stats summarizes the run.
	Stats Stats
}

// Backend is the one shape of every source backend: it resolves a key —
// a page URL, a document path, a database DSN — to content under the
// reading rule's context, which it should honour (readDoc abandons a
// read that outlives it). One call is one document read, however many
// rules run over the result.
type Backend[T any] func(ctx context.Context, key string) (T, error)

// Backends resolves source definitions to live content: in-process
// stores (FromCatalog), an HTTP page fetch (transport.HTTPFetcher), or
// wrappers over either (internal/faultinject).
type Backends struct {
	// Pages fetches web page content by URL.
	Pages Backend[string]
	// XML resolves Definition.Path for XML sources to the parsed root.
	XML Backend[*xmlpath.Node]
	// Text resolves Definition.Path for plain-text sources.
	Text Backend[string]
	// DB resolves Definition.DSN for database sources.
	DB Backend[*reldb.DB]
}

// FromCatalog builds backends over an in-process source catalog.
func FromCatalog(c *datasource.Catalog) Backends {
	return Backends{Pages: local(c.Fetch), XML: local(c.XML.Get), Text: local(c.Text.Get), DB: local(c.DB)}
}

// local adapts an in-process read, which never blocks, to Backend.
func local[T any](get func(key string) (T, error)) Backend[T] {
	return func(_ context.Context, key string) (T, error) { return get(key) }
}

// Options tune the manager.
type Options struct {
	// Parallelism bounds concurrent source extractions (a batch's runs
	// share one such bound); 0 means DefaultParallelism, 1 forces
	// sequential extraction. It is the only fan-out: a source's own rules
	// always run one after another, in entry order.
	Parallelism int
	// Timeout bounds each source's total extraction time; 0 means
	// DefaultTimeout.
	Timeout time.Duration
	// QueryBudget bounds one whole extraction run: a deadline budget
	// shared by every source, so a single slow partner cannot consume the
	// query's entire time. It layers under the caller's context deadline
	// and over the per-source Timeout. 0 means no budget.
	QueryBudget time.Duration
	// Retries is how many times a failed rule execution is retried.
	// Failures marked Permanent (rule-compile errors, missing columns,
	// unconfigured backends) are never retried.
	Retries int
	// RetryBackoff is the base delay of the full-jitter exponential
	// backoff between retry attempts: each attempt sleeps a uniformly
	// random duration in [0, min(2s, RetryBackoff<<attempt)).
	// 0 means DefaultRetryBackoff; negative disables backoff (tight-loop
	// retries, useful in tests).
	RetryBackoff time.Duration
	// Breaker configures the per-source circuit breaker; the zero value
	// disables it.
	Breaker BreakerOptions
	// DisablePushdown turns off the query planner's predicate pushdown
	// and projection pruning (internal/planner). By default, Schema
	// rewrites the extraction schema per query: source groups that cannot
	// satisfy the WHERE conditions are pruned before any rule runs,
	// record-scoped filters drop failing records at the source boundary,
	// and database groups get the constraints appended to their generated
	// SQL. The instance layer re-applies every condition regardless, so
	// this knob trades only latency, never answers (benchmarks compare
	// both paths; see docs/PERFORMANCE.md).
	DisablePushdown bool
	// DisableSemiJoin turns off cross-source semi-join narrowing
	// (planner v3). By default, source plans the planner marked
	// narrowable are deferred to a second extraction wave and restricted
	// to the class-key values the first wave actually produced, so a
	// selective query reads far fewer rows from large keyed sources. The
	// instance layer re-applies every condition regardless, so the knob
	// trades only latency, never answers.
	DisableSemiJoin bool
	// SemiJoinMaxValues caps the number of distinct key values pushed
	// into a narrowed rule; past it the plan runs unnarrowed (a huge IN
	// list would cost more than it saves). 0 means
	// DefaultSemiJoinMaxValues.
	SemiJoinMaxValues int
}

// Defaults for Options.
const (
	DefaultParallelism       = 8
	DefaultTimeout           = 10 * time.Second
	DefaultRetryBackoff      = 20 * time.Millisecond
	DefaultSemiJoinMaxValues = 64
)

// retryBackoffCap caps a single backoff sleep, however many attempts
// came before it.
const retryBackoffCap = 2 * time.Second

// Manager coordinates extraction across the registered data sources.
type Manager struct {
	repo     *mapping.Repository
	backends Backends
	opts     Options

	// compiled memoizes per-rule compiled artifacts (always on:
	// compilation is pure, so there is no freshness to trade). Rule
	// results are never cached: data values are extracted live on every
	// query.
	compiled compiledCache

	breaker *breaker

	// srcMetricsMu guards the memoized per-source metric handles: the
	// labels maps and series lookups for a source's steady-state metrics
	// are resolved once per (registry, source), not once per query.
	srcMetricsMu  sync.Mutex
	srcMetricsFor map[string]srcMetrics
	srcMetricsReg *obs.Registry

	// sleep and randFloat are the backoff hooks; tests inject a recording
	// sleep and a deterministic rand to assert jittered delays exactly.
	// sleep returns false when ctx expired before the delay elapsed.
	sleep     func(ctx context.Context, d time.Duration) bool
	randMu    sync.Mutex
	randFloat func() float64
}

// NewManager builds an extractor manager over an attribute repository and
// content backends.
func NewManager(repo *mapping.Repository, backends Backends, opts Options) *Manager {
	if opts.Parallelism <= 0 {
		opts.Parallelism = DefaultParallelism
	}
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultTimeout
	}
	if opts.RetryBackoff == 0 {
		opts.RetryBackoff = DefaultRetryBackoff
	}
	m := &Manager{repo: repo, backends: backends, opts: opts, breaker: newBreaker(opts.Breaker)}
	m.sleep = sleepCtx
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	m.randFloat = rng.Float64
	return m
}

// sleepCtx sleeps for d unless ctx expires first; it reports whether the
// full delay elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// backoffDelay returns the full-jitter exponential backoff before retry
// attempt (0-based): uniform in [0, min(retryBackoffCap, base<<attempt)).
func (m *Manager) backoffDelay(attempt int) time.Duration {
	base := m.opts.RetryBackoff
	if base < 0 {
		return 0
	}
	ceil := retryBackoffCap
	if attempt < 62 { // avoid shift overflow
		if scaled := base << uint(attempt); scaled < ceil {
			ceil = scaled
		}
	}
	m.randMu.Lock()
	f := m.randFloat()
	m.randMu.Unlock()
	return time.Duration(f * float64(ceil))
}

// srcMetrics is one source's steady-state metric handles.
type srcMetrics struct {
	okTotal  *obs.Counter   // extract total, outcome "ok"
	duration *obs.Histogram // extract duration
	retries  *obs.Counter   // retry count
}

// sourceMetrics resolves (and memoizes) a source's steady-state metric
// handles against reg. A registry change — tests wiring a fresh one —
// resets the memo; every handle is nil-safe when reg is nil.
func (m *Manager) sourceMetrics(reg *obs.Registry, sourceID string) srcMetrics {
	m.srcMetricsMu.Lock()
	defer m.srcMetricsMu.Unlock()
	if m.srcMetricsReg != reg || m.srcMetricsFor == nil {
		m.srcMetricsReg = reg
		m.srcMetricsFor = make(map[string]srcMetrics)
	}
	sm, ok := m.srcMetricsFor[sourceID]
	if !ok {
		sm = srcMetrics{
			okTotal:  reg.Counter(obs.MetricSourceExtractTotal, obs.Labels{"source": sourceID, "outcome": "ok"}),
			duration: reg.Histogram(obs.MetricSourceExtractDuration, obs.Labels{"source": sourceID}),
			retries:  reg.Counter(obs.MetricSourceRetries, obs.Labels{"source": sourceID}),
		}
		m.srcMetricsFor[sourceID] = sm
	}
	return sm
}

// CompiledRuleCount reports how many distinct rules currently hold
// compiled artifacts (ops introspection; coherence tests assert that
// catalog mutations leave it alone).
func (m *Manager) CompiledRuleCount() int { return m.compiled.len() }

// Schema is one query's extraction schema — steps 2-3 of the
// extraction process, with the query planner's rewrite applied. It
// depends only on the query and the catalog, so the middleware computes
// it once per plan-cache miss and every run of the query shares it.
// A Schema and everything it holds are read-only once built.
type Schema struct {
	// Base is the repository's schema for the query's attributes: every
	// source plan they map to, in source order, unrewritten. The
	// merge-free proof reads it, and the cluster coordinator partitions
	// and marks failovers over it.
	Base []mapping.SourcePlan
	// Plans are the source plans extraction runs: Base as the planner
	// rewrote it, or Base itself when the planner did not run.
	Plans []mapping.SourcePlan
	// Missing lists requested attributes that have no mapping.
	Missing []string
	// Planner is the rewrite's outcome, nil when the planner did not run
	// (an unconstrained query, or Options.DisablePushdown).
	Planner *planner.Stats
}

// Schema runs steps 2-3 of the extraction process for a planned query —
// extraction schema plus data source definitions — and, for constrained
// queries with pushdown enabled, the query planner's rewrite
// (internal/planner): source groups that provably cannot contribute are
// pruned, record-scoped filters attached, and string constraints pushed
// into generated SQL. The work runs under an "extraction_schema" span
// opened in ctx.
func (m *Manager) Schema(ctx context.Context, qplan *s2sql.Plan) (*Schema, error) {
	if qplan == nil {
		return nil, errors.New("extract: nil query plan")
	}
	return m.schema(ctx, qplan.AttributeIDs(), qplan)
}

// schema is Schema for an attribute list; a nil qplan skips the rewrite.
func (m *Manager) schema(ctx context.Context, attributeIDs []string, qplan *s2sql.Plan) (*Schema, error) {
	_, sspan, sdone := obs.StartStage(ctx, "extraction_schema")
	defer sdone()
	plans, missing, err := m.repo.Schema(attributeIDs)
	if err != nil {
		return nil, fmt.Errorf("extract: obtaining extraction schema: %w", err)
	}
	sspan.SetAttr("sources", strconv.Itoa(len(plans)))
	s := &Schema{Base: plans, Plans: plans, Missing: missing}
	if qplan != nil && len(qplan.Conditions) > 0 && !m.opts.DisablePushdown {
		res := planner.Rewrite(m.repo.Ontology(), m.repo.ClassKeys(), qplan, plans)
		s.Plans, s.Planner = res.Plans, &res.Stats
	}
	return s, nil
}

// Extract runs the four-step process for the given attribute list, with
// no query planner. When ctx carries an obs span and metrics registry
// (the middleware query path injects both), the run emits an "extract"
// span with one "source:<id>" child per contacted source and per-source
// counters and latency histograms.
func (m *Manager) Extract(ctx context.Context, attributeIDs []string) (*ResultSet, error) {
	s, err := m.schema(ctx, attributeIDs, nil)
	if err != nil {
		return nil, err
	}
	return m.extract(ctx, s, nil, nil)
}

// ExtractQuery runs step 4 — extraction proper — over a query's schema
// (see Schema).
func (m *Manager) ExtractQuery(ctx context.Context, s *Schema) (*ResultSet, error) {
	return m.extract(ctx, s, nil, nil)
}

// ExtractQuerySources is ExtractQuery restricted to the given source
// IDs: only the schema's plans of the listed sources are executed, in
// schema order (the list is a set: its order and repeats do not
// matter). The cluster's scatter-gather path uses it so each node
// extracts exactly the sources it owns; because the restriction is
// applied to the planner-rewritten plans, the union of the per-node
// fragment sets is identical to one unrestricted run. Failover marking
// is skipped — a restricted run cannot see fragments other nodes
// produced — so the coordinator must re-mark the merged result set with
// MarkFailovers.
func (m *Manager) ExtractQuerySources(ctx context.Context, s *Schema, sourceIDs []string) (*ResultSet, error) {
	if sourceIDs == nil {
		sourceIDs = []string{}
	}
	return m.extract(ctx, s, sourceIDs, nil)
}

// ExtractQueryEach is ExtractQuery with the fragments handed to a sink
// instead of collected: deliver receives each source's complete
// fragments once, as that source finishes, for every source that ran.
// Calls come concurrently from the source goroutines, each outside the
// run's lock, so a deliver that blocks holds back only its own source
// (and the parallelism slot it occupies). The returned ResultSet carries
// everything else — errors, missing attributes, stats, failover marks —
// and no fragments. The eager query path (instance.GenerateEager) is
// its sink.
func (m *Manager) ExtractQueryEach(ctx context.Context, s *Schema, deliver func(sourceID string, frags []Fragment)) (*ResultSet, error) {
	ctx, r, err := m.planRun(ctx, s, nil, nil)
	if err != nil {
		return nil, err
	}
	defer r.end()
	r.execute(ctx, deliver)
	return r.rs, nil
}

// extract is the materialized run: the same run as ExtractQueryEach
// with a sink that appends every source's fragments to the ResultSet,
// which is returned once all sources finished.
func (m *Manager) extract(ctx context.Context, s *Schema, restrict []string, shared *sharedRun) (*ResultSet, error) {
	ctx, r, err := m.planRun(ctx, s, restrict, shared)
	if err != nil {
		return nil, err
	}
	defer r.end()

	// Pre-size the fragment slice to the plan's rule count: the common
	// all-sources-healthy run appends exactly one fragment per entry.
	totalEntries := 0
	for _, p := range r.plans {
		totalEntries += len(p.Entries)
	}
	rs := r.rs
	rs.Fragments = make([]Fragment, 0, totalEntries)
	var mu sync.Mutex
	r.execute(ctx, func(_ string, frags []Fragment) {
		mu.Lock()
		rs.Fragments = append(rs.Fragments, frags...)
		mu.Unlock()
	})
	return rs, nil
}

// plannedRun is one extraction between schema planning and fan-out:
// the state the materialized path (extract) and the sink path
// (ExtractQueryEach) share. They differ only in the deliver callback
// handed to execute.
type plannedRun struct {
	m       *Manager
	espan   *obs.Span
	metrics *obs.Registry
	// end closes the extract span and releases the deadline budget.
	end func()
	// plans are the sources to contact, in schema order.
	plans []mapping.SourcePlan
	// restricted marks a cluster sub-request: no semi-join split and no
	// failover marking, both of which need the global source view.
	restricted bool
	docs       *runDocs
	sem        chan struct{}
	// rs collects everything but the fragments, which go to deliver.
	rs *ResultSet
}

// planRun runs everything that precedes fan-out: the deadline budget,
// the selection of the schema's source plans, and the planner's span
// attributes and counters. A non-nil restrict list limits execution to
// the named sources. A non-nil shared run replaces the per-run document
// layer, parallelism semaphore, and deadline budget with ones a batch of
// concurrent runs holds in common (see ExtractQueryBatch); everything
// else — wave split, canonical sort — stays per run, so a shared-run
// result set is identical to a standalone one. On success the caller
// owns r.end.
func (m *Manager) planRun(ctx context.Context, s *Schema, restrict []string, shared *sharedRun) (context.Context, *plannedRun, error) {
	if s == nil {
		return ctx, nil, errors.New("extract: nil extraction schema")
	}
	ctx, espan, edone := obs.StartStage(ctx, "extract")
	metrics := obs.MetricsFromContext(ctx)

	// The deadline budget bounds the whole run; per-source timeouts nest
	// under it, so one slow source cannot consume the query's time. A
	// shared run's budget is applied once by the batch entry point.
	cancel := context.CancelFunc(func() {})
	if m.opts.QueryBudget > 0 && shared == nil {
		ctx, cancel = context.WithTimeout(ctx, m.opts.QueryBudget)
	}
	r := &plannedRun{m: m, espan: espan, metrics: metrics, restricted: restrict != nil, rs: &ResultSet{Missing: s.Missing}}
	r.end = func() {
		cancel()
		edone()
	}

	if p := s.Planner; p != nil {
		espan.SetAttr("sources_pruned", strconv.Itoa(p.SourcesPruned))
		espan.SetAttr("entries_pruned", strconv.Itoa(p.EntriesPruned))
		espan.SetAttr("pushdown_applied", strconv.Itoa(p.PushdownApplied))
		metrics.Counter(obs.MetricPlannerSourcesPruned, nil).Add(uint64(p.SourcesPruned))
		metrics.Counter(obs.MetricPlannerEntriesPruned, nil).Add(uint64(p.EntriesPruned))
		metrics.Counter(obs.MetricPlannerPushdownApplied, nil).Add(uint64(p.PushdownApplied))
	}
	espan.SetAttr("sources", strconv.Itoa(len(s.Plans)))

	// Sources run in schema order. A restricted run keeps the plans of
	// the sources it names; the schema is shared, so they go to a fresh
	// slice.
	plans := s.Plans
	if restrict != nil {
		named := make(map[string]bool, len(restrict))
		for _, id := range restrict {
			named[id] = true
		}
		kept := plans[:0:0]
		for _, p := range plans {
			if named[p.Source.ID] {
				kept = append(kept, p)
			}
		}
		plans = kept
		espan.SetAttr("sources_restricted", strconv.Itoa(len(plans)))
	}
	r.plans = plans

	// Per-run shared state: the document layer (each source document is
	// fetched/parsed once per run, shared across rules) and the
	// parallelism semaphore. A batch run widens both to the whole batch.
	if shared != nil {
		r.docs, r.sem = shared.docs, shared.sem
	} else {
		r.docs, r.sem = newRunDocs(), make(chan struct{}, m.opts.Parallelism)
	}
	return ctx, r, nil
}

// execute runs step 4: a specific extractor is delegated per source,
// concurrently under the parallelism semaphore, in up to two semi-join
// waves. Each source's fragments go to deliver as the source completes —
// outside the run's lock, because deliver may block on a consumer — and
// everything else (errors, stats, failover marks, the canonical sort)
// lands in r.rs, complete when execute returns.
func (r *plannedRun) execute(ctx context.Context, deliver func(sourceID string, frags []Fragment)) {
	m, rs, espan, metrics := r.m, r.rs, r.espan, r.metrics

	// Semi-join split (planner v3): narrowable plans defer to a second
	// wave restricted to the key values the first wave produced.
	wave1, wave2, keyAttrs := m.splitWaves(r.plans, r.restricted, metrics)

	var (
		mu      sync.Mutex
		covered = make(map[string]bool) // attributes some fragment served
		seed    map[string]map[string]bool
	)
	if len(wave2) > 0 {
		seed = make(map[string]map[string]bool, len(keyAttrs))
	}
	runWave := func(wavePlans []mapping.SourcePlan, collectSeed bool) {
		var wg sync.WaitGroup
		for _, plan := range wavePlans {
			wg.Add(1)
			go func(plan mapping.SourcePlan) {
				defer wg.Done()
				select {
				case r.sem <- struct{}{}:
					defer func() { <-r.sem }()
				case <-ctx.Done():
					metrics.Counter(obs.MetricSourceExtractTotal,
						obs.Labels{"source": plan.Source.ID, "outcome": "canceled"}).Inc()
					mu.Lock()
					rs.Errors = append(rs.Errors, SourceError{SourceID: plan.Source.ID, Err: ctx.Err()})
					mu.Unlock()
					return
				}
				sctx := obs.ContextWithSpan(ctx, espan.StartChild("source:"+plan.Source.ID))
				frags, errs, run := m.extractSource(sctx, plan, r.docs)
				mu.Lock()
				rs.Errors = append(rs.Errors, errs...)
				rs.Stats.Retries += run.retries
				for _, f := range frags {
					covered[f.AttributeID] = true
					rs.Stats.ValuesExtracted += len(f.Values)
				}
				if collectSeed {
					addSeed(seed, keyAttrs, frags)
				}
				mu.Unlock()
				deliver(plan.Source.ID, frags)
			}(plan)
		}
		wg.Wait()
	}
	runWave(wave1, len(wave2) > 0)
	if len(wave2) > 0 {
		// The barrier above makes the seed complete: every key value any
		// non-narrowed source produced is in it by now.
		narrowed := make([]mapping.SourcePlan, len(wave2))
		for i := range wave2 {
			narrowed[i] = m.narrowPlan(wave2[i], seed, metrics)
		}
		espan.SetAttr("semijoin_wave2", strconv.Itoa(len(narrowed)))
		runWave(narrowed, false)
	}

	rs.Stats.SourcesContacted = len(r.plans)
	// Failover marking needs the global fragment view, which a restricted
	// run lacks; the cluster coordinator marks the merged set instead.
	if !r.restricted {
		if failovers := markFailovers(rs.Errors, covered, r.plans, metrics); failovers > 0 {
			espan.SetAttr("failover", strconv.Itoa(failovers))
		}
	}
	rs.SortCanonical()
}

// SortCanonical puts the result set in the pipeline's deterministic
// order: fragments by (attribute, source), errors by (source,
// attribute). Extraction applies it before returning; the
// cluster coordinator re-applies it after merging per-node result sets
// so merged answers stay byte-identical to single-node ones.
func (rs *ResultSet) SortCanonical() {
	sort.Slice(rs.Fragments, func(i, j int) bool {
		if rs.Fragments[i].AttributeID != rs.Fragments[j].AttributeID {
			return rs.Fragments[i].AttributeID < rs.Fragments[j].AttributeID
		}
		return rs.Fragments[i].SourceID < rs.Fragments[j].SourceID
	})
	sort.Slice(rs.Errors, func(i, j int) bool {
		if rs.Errors[i].SourceID != rs.Errors[j].SourceID {
			return rs.Errors[i].SourceID < rs.Errors[j].SourceID
		}
		return rs.Errors[i].AttributeID < rs.Errors[j].AttributeID
	})
}

// MarkFailovers flags failures whose attributes were still served by an
// alternate source: the mapping repository holds more than one source per
// attribute, so a partner outage costs redundancy, not answers. Flagged
// failures count under the "failover" outcome. It needs the global
// fragment view, so the cluster coordinator calls it once over the
// merged result set (with the coordinator's full schema plans) rather
// than per node; it reports how many errors it flagged. metrics may be
// nil.
func MarkFailovers(rs *ResultSet, plans []mapping.SourcePlan, metrics *obs.Registry) int {
	if len(rs.Errors) == 0 {
		return 0
	}
	covered := make(map[string]bool, len(rs.Fragments))
	for _, f := range rs.Fragments {
		covered[f.AttributeID] = true
	}
	return markFailovers(rs.Errors, covered, plans, metrics)
}

// markFailovers is MarkFailovers over an attribute-coverage set, which
// is all the marking needs of the fragments.
func markFailovers(errs []SourceError, covered map[string]bool, plans []mapping.SourcePlan, metrics *obs.Registry) int {
	if len(errs) == 0 {
		return 0
	}
	attrsOf := make(map[string][]string, len(plans))
	for _, p := range plans {
		for _, e := range p.Entries {
			attrsOf[p.Source.ID] = append(attrsOf[p.Source.ID], e.AttributeID)
		}
	}
	failovers := 0
	for i := range errs {
		e := &errs[i]
		if e.Failover {
			continue
		}
		// Whole-source failures (breaker skips, timeouts before any rule
		// ran) carry no attribute ID; they fail over when every attribute
		// the source was planned to serve is covered elsewhere.
		attrs := attrsOf[e.SourceID]
		if e.AttributeID != "" {
			attrs = []string{e.AttributeID}
		}
		if len(attrs) == 0 {
			continue
		}
		all := true
		for _, a := range attrs {
			if !covered[a] {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		e.Failover = true
		failovers++
		metrics.Counter(obs.MetricSourceExtractTotal,
			obs.Labels{"source": e.SourceID, "outcome": obs.OutcomeFailover}).Inc()
	}
	return failovers
}

// sourceRun summarizes one source's extraction pass.
type sourceRun struct {
	retries   int
	exhausted bool // at least one rule failed after its full retry budget
}

// extractSource runs every rule of one source plan under the per-source
// timeout, honoring the circuit breaker. The span and metrics registry
// carried by ctx (if any) receive the per-source annotations: kind,
// outcome, retries, and breaker state.
func (m *Manager) extractSource(ctx context.Context, plan mapping.SourcePlan, docs *runDocs) (frags []Fragment, errs []SourceError, run sourceRun) {
	span := obs.SpanFromContext(ctx)
	metrics := obs.MetricsFromContext(ctx)
	sm := m.sourceMetrics(metrics, plan.Source.ID)
	start := time.Now()
	outcome := "ok"
	defer func() {
		span.SetAttr("kind", plan.Source.Kind.String())
		span.SetAttr("outcome", outcome)
		span.SetAttr("retries", strconv.Itoa(run.retries))
		span.End()
		if outcome == "ok" {
			sm.okTotal.Inc()
		} else {
			metrics.Counter(obs.MetricSourceExtractTotal,
				obs.Labels{"source": plan.Source.ID, "outcome": outcome}).Inc()
		}
		sm.duration.Observe(time.Since(start).Seconds())
		sm.retries.Add(uint64(run.retries))
	}()

	if !m.breaker.allow(plan.Source.ID) {
		outcome = "breaker_open"
		span.SetAttr("breaker", "open")
		return nil, []SourceError{{
			SourceID: plan.Source.ID,
			Err:      errCircuitOpen{sourceID: plan.Source.ID, retryAt: m.breaker.retryAt(plan.Source.ID)},
		}}, run
	}

	rctx, cancel := context.WithTimeout(ctx, m.opts.Timeout)
	defer cancel()
	frags = make([]Fragment, 0, len(plan.Entries))
	// fragAt maps entry index to fragment index for the planner's
	// record-scoped filters; entries whose rule failed map to -1.
	var fragAt []int
	if len(plan.Filters) > 0 {
		fragAt = make([]int, len(plan.Entries))
		for i := range fragAt {
			fragAt[i] = -1
		}
	}
	// Rules run in entry order on the source's own goroutine (the source
	// fan-out in execute is the only fan-out), so each result becomes
	// a fragment or an error as soon as its rule returns, in entry order.
	anyFailed := false
	for i, entry := range plan.Entries {
		res := m.retryRule(rctx, plan.Source, entry, docs)
		run.retries += res.attempts
		if res.exhausted {
			run.exhausted = true
		}
		if res.err != nil {
			anyFailed = true
			errs = append(errs, SourceError{SourceID: plan.Source.ID, AttributeID: entry.AttributeID, Err: res.err})
			continue
		}
		if entry.Scenario == mapping.SingleRecord && len(res.values) > 1 {
			errs = append(errs, SourceError{
				SourceID:    plan.Source.ID,
				AttributeID: entry.AttributeID,
				Err: Permanent(fmt.Errorf("extract: single-record source produced %d values for %s",
					len(res.values), entry.AttributeID)),
			})
			continue
		}
		frags = append(frags, Fragment{
			AttributeID: entry.AttributeID,
			SourceID:    plan.Source.ID,
			Scenario:    entry.Scenario,
			Values:      res.values,
		})
		if fragAt != nil {
			fragAt[i] = len(frags) - 1
		}
	}
	for _, f := range plan.Filters {
		applyRecordFilter(frags, fragAt, f)
	}
	switch {
	case anyFailed && run.exhausted:
		outcome = obs.OutcomeRetryExhausted
	case anyFailed:
		outcome = obs.OutcomeError
	}
	if m.breaker.report(plan.Source.ID, anyFailed) {
		span.SetAttr("breaker", "tripped")
		metrics.Counter(obs.MetricBreakerTrips, obs.Labels{"source": plan.Source.ID}).Inc()
	}
	return frags, errs, run
}

// ruleResult is the outcome of one rule execution (with retries).
type ruleResult struct {
	values   []string
	attempts int // retries performed (not counting the first attempt)
	// exhausted marks a retriable failure that used the whole retry
	// budget; err is the final error.
	exhausted bool
	err       error
}

// retryRule executes one rule live with bounded retries: full-jitter
// exponential backoff between attempts, fail-fast on Permanent errors.
func (m *Manager) retryRule(ctx context.Context, def datasource.Definition, entry mapping.Entry, docs *runDocs) ruleResult {
	for attempt := 0; ; attempt++ {
		values, err := m.runRule(ctx, def, entry, docs)
		if err == nil {
			return ruleResult{values: values, attempts: attempt}
		}
		res := ruleResult{attempts: attempt, err: err}
		if IsPermanent(err) {
			return res
		}
		if attempt >= m.opts.Retries || ctx.Err() != nil {
			res.exhausted = m.opts.Retries > 0 && attempt >= m.opts.Retries
			return res
		}
		if !m.sleep(ctx, m.backoffDelay(attempt)) {
			return res
		}
	}
}

// runRule delegates to the extractor for the source's kind, then applies
// the rule's value transform, if any. Compiled artifacts come from the
// manager's compiled-rule cache; source documents from the run's shared
// document layer, read under the rule's ctx. The rule runs inline: a
// backend read ends at ctx's deadline, CPU-bound work finishes first.
func (m *Manager) runRule(ctx context.Context, def datasource.Definition, entry mapping.Entry, docs *runDocs) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cr := m.compiled.get(entry.Rule)
	var values []string
	var err error
	switch def.Kind {
	case datasource.KindDatabase:
		values, err = m.extractDB(ctx, def, entry, cr, docs)
	case datasource.KindXML:
		values, err = m.extractXML(ctx, def, cr, docs)
	case datasource.KindWeb:
		values, err = m.extractWeb(ctx, def, entry, cr, docs)
	case datasource.KindText:
		values, err = m.extractText(ctx, def, cr, docs)
	default:
		err = Permanent(fmt.Errorf("extract: no extractor for source kind %d", int(def.Kind)))
	}
	if err != nil {
		return nil, err
	}
	return applyTransform(cr, values)
}

// applyTransform normalizes each extracted value through the rule's
// compiled WebL transform expression (with the raw value bound to v).
func applyTransform(cr *compiledRule, values []string) ([]string, error) {
	if cr.transformErr != nil {
		return values, cr.transformErr
	}
	if cr.transform == nil {
		return values, nil
	}
	out := make([]string, len(values))
	for i, raw := range values {
		globals, err := cr.transform.Run(&webl.Env{Globals: map[string]webl.Value{"v": raw}})
		if err != nil {
			return nil, fmt.Errorf("extract: transform of %q: %w", raw, err)
		}
		transformed, err := weblValueToStrings(globals["result"])
		if err != nil {
			return nil, err
		}
		if len(transformed) != 1 {
			return nil, fmt.Errorf("extract: transform of %q produced %d values, want 1", raw, len(transformed))
		}
		out[i] = transformed[0]
	}
	return out, nil
}

// extractDB runs a SQL rule and projects the configured column as strings.
// The database handle is resolved once per run, and pre-parsed SELECTs
// skip the per-call SQL parse; a rule whose statement did not pre-parse
// falls back to the database's own Query for identical error reporting.
func (m *Manager) extractDB(ctx context.Context, def datasource.Definition, entry mapping.Entry, cr *compiledRule, docs *runDocs) ([]string, error) {
	db, err := readDoc(ctx, docs, docs.dbs, m.backends.DB, def.DSN)
	if err != nil {
		return nil, err
	}
	var res *reldb.Result
	if cr.sql != nil {
		res, err = db.QuerySelect(cr.sql)
	} else {
		res, err = db.Query(entry.Rule.Code)
	}
	if err != nil && entry.Rule.Fallback != "" {
		// The planner's pushed-down WHERE can fail where the original rule
		// would not (e.g. LIKE against a non-text column); re-run the
		// preserved original and let the instance-layer filter take over.
		res, err = db.Query(entry.Rule.Fallback)
	}
	if err != nil {
		return nil, err
	}
	col := 0
	if entry.Rule.Column != "" {
		col = -1
		for i, name := range res.Columns {
			if strings.EqualFold(name, entry.Rule.Column) {
				col = i
				break
			}
		}
		if col < 0 {
			return nil, Permanent(fmt.Errorf("extract: result of %q has no column %q", entry.Rule.Code, entry.Rule.Column))
		}
	}
	if len(res.Columns) == 0 {
		return nil, Permanent(fmt.Errorf("extract: rule %q projected no columns", entry.Rule.Code))
	}
	return columnStrings(res.Rows, col), nil
}

// columnStrings renders column col of rows as strings: NULL as "" and
// everything else as Value.String. TEXT cells keep their own string;
// numbers and booleans format into one buffer that becomes one string,
// sliced per cell, so a numeric column costs a few allocations per
// result instead of one per row.
func columnStrings(rows [][]reldb.Value, col int) []string {
	values := make([]string, len(rows))
	var buf []byte
	var ends []int // ends[i] is where row i's text ends in buf; 0 if it has none
	for i, row := range rows {
		v := row[col]
		if v.Null {
			continue
		}
		if s, ok := v.TextValue(); ok {
			values[i] = s
			continue
		}
		if ends == nil {
			ends = make([]int, len(rows))
			buf = make([]byte, 0, 8*len(rows))
		}
		buf = v.AppendTo(buf)
		ends[i] = len(buf)
	}
	all, start := string(buf), 0
	for i, end := range ends {
		if end > 0 { // every formatted number or boolean is non-empty
			values[i], start = all[start:end], end
		}
	}
	return values
}

// extractXML runs the rule's compiled path over the run's shared parsed
// document, read once per run however many rules select from it.
func (m *Manager) extractXML(ctx context.Context, def datasource.Definition, cr *compiledRule, docs *runDocs) ([]string, error) {
	if cr.xpathErr != nil {
		return nil, Permanent(cr.xpathErr)
	}
	root, err := readDoc(ctx, docs, docs.xml, m.backends.XML, def.Path)
	if err != nil {
		return nil, err
	}
	return cr.xpath.SelectStrings(root), nil
}

// extractText runs the rule's compiled regex over the run's shared
// document content, read once per run like extractXML's.
func (m *Manager) extractText(ctx context.Context, def datasource.Definition, cr *compiledRule, docs *runDocs) ([]string, error) {
	if cr.regexErr != nil {
		return nil, Permanent(cr.regexErr)
	}
	content, err := readDoc(ctx, docs, docs.text, m.backends.Text, def.Path)
	if err != nil {
		return nil, err
	}
	return textsrc.ExtractCompiled(content, cr.regex), nil
}

// ruleFetcher is one rule's view of the run's pages: every page it asks
// for — a WebL GetURL call or a selector rule's document — comes from
// the run's page slot, read under the rule's context. This is the
// sanctioned exception to the no-ctx-in-structs rule: it carries the
// rule's context through the interpreter's context-free webl.Fetcher,
// and lives only for the one rule execution that made it.
type ruleFetcher struct {
	//lint:ignore ctxfield single-rule adapter carrying the rule's context through the interpreter's context-free webl.Fetcher to the page backend; scoped to one extraction and never stored
	ctx  context.Context
	docs *runDocs
	next Backend[string]
}

// Fetch returns the run's copy of the page at url.
func (f ruleFetcher) Fetch(url string) (string, error) {
	return readDoc(f.ctx, f.docs, f.docs.pages, f.next, url)
}

// parse returns the run's DOM of the page at url, parsed once per run on
// the rule's goroutine; only the page read under it calls a backend.
func (f ruleFetcher) parse(url string) (*htmldoc.Node, error) {
	s, err := takeSlot(f.ctx, f.docs, f.docs.html, url)
	if err != nil {
		return nil, err
	}
	defer s.release()
	if !s.ok {
		src, err := f.Fetch(url)
		if err != nil {
			return nil, err
		}
		s.doc, s.ok = htmldoc.Parse(src), true
	}
	return s.doc, nil
}

// extractWeb delegates by rule language: WebL programs run in the
// interpreter (their GetURL calls read the run's shared pages); CSS
// selector rules extract from the run's shared parsed DOM.
func (m *Manager) extractWeb(ctx context.Context, def datasource.Definition, entry mapping.Entry, cr *compiledRule, docs *runDocs) ([]string, error) {
	pages := ruleFetcher{ctx: ctx, docs: docs, next: m.backends.Pages}
	if entry.Rule.Language == mapping.LangSelector {
		if cr.selectorErr != nil {
			return nil, Permanent(cr.selectorErr)
		}
		root, err := pages.parse(def.URL)
		if err != nil {
			return nil, err
		}
		return cr.selector.Extract(root), nil
	}
	if cr.weblErr != nil {
		return nil, Permanent(cr.weblErr)
	}
	globals, err := cr.webl.Run(&webl.Env{Fetcher: pages})
	if err != nil {
		return nil, err
	}
	var candidates []string
	if entry.Rule.Column != "" {
		candidates = []string{entry.Rule.Column}
	} else {
		simple := entry.AttributeID
		if idx := strings.LastIndexByte(simple, '.'); idx >= 0 {
			simple = simple[idx+1:]
		}
		candidates = []string{simple, "result"}
	}
	for _, name := range candidates {
		v, ok := globals[name]
		if !ok {
			continue
		}
		return weblValueToStrings(v)
	}
	return nil, Permanent(fmt.Errorf("extract: webl rule defines none of %v", candidates))
}

func weblValueToStrings(v webl.Value) ([]string, error) {
	switch t := v.(type) {
	case nil:
		return nil, nil
	case string:
		return []string{t}, nil
	case []webl.Value:
		out := make([]string, 0, len(t))
		for _, e := range t {
			if s, ok := e.(string); ok {
				out = append(out, s)
				continue
			}
			sub, err := weblValueToStrings(e)
			if err != nil {
				return nil, err
			}
			out = append(out, sub...)
		}
		return out, nil
	case float64, bool:
		return []string{fmt.Sprintf("%v", t)}, nil
	case *webl.Page:
		return nil, fmt.Errorf("extract: webl rule produced a page, not a value")
	default:
		return nil, fmt.Errorf("extract: webl rule produced unsupported value %T", v)
	}
}
