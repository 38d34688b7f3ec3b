package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Exported metric family names. Every family the middleware emits is
// declared here and documented in docs/OBSERVABILITY.md; a test keeps
// the code, this list, and the document in sync.
const (
	// MetricQueryTotal counts queries served, labeled by outcome.
	MetricQueryTotal = "s2s_query_total"
	// MetricQueryDuration is the end-to-end query latency histogram.
	MetricQueryDuration = "s2s_query_duration_seconds"
	// MetricStageDuration is the per-pipeline-stage latency histogram.
	MetricStageDuration = "s2s_stage_duration_seconds"
	// MetricSourceExtractTotal counts per-source extraction attempts.
	MetricSourceExtractTotal = "s2s_source_extract_total"
	// MetricSourceExtractDuration is the per-source extraction latency
	// histogram.
	MetricSourceExtractDuration = "s2s_source_extract_duration_seconds"
	// MetricSourceRetries counts rule re-executions per source.
	MetricSourceRetries = "s2s_source_retries_total"
	// MetricBreakerTrips counts circuit-breaker open transitions.
	MetricBreakerTrips = "s2s_breaker_trips_total"
	// MetricInstances counts generated (matched) ontology instances.
	MetricInstances = "s2s_instances_generated_total"
	// MetricPlannerSourcesPruned counts source plans the query planner
	// dropped entirely before extraction.
	MetricPlannerSourcesPruned = "s2s_planner_sources_pruned_total"
	// MetricPlannerEntriesPruned counts mapping entries the query planner
	// removed without running their rules.
	MetricPlannerEntriesPruned = "s2s_planner_entries_pruned_total"
	// MetricPlannerPushdownApplied counts record-scope groups that
	// received a predicate pushdown (record filter and/or native SQL).
	MetricPlannerPushdownApplied = "s2s_planner_pushdown_applied_total"
	// MetricPlannerMergeFree counts merge-free proof decisions at plan
	// time, labeled by outcome (the planner's MergeFree* constants).
	MetricPlannerMergeFree = "s2s_planner_mergefree_total"
	// MetricPlannerSemiJoin counts semi-join narrowing decisions at
	// runtime, labeled by outcome.
	MetricPlannerSemiJoin = "s2s_planner_semijoin_total"
	// MetricClusterSubqueries counts scatter-gather sub-requests
	// dispatched to cluster nodes, labeled by node and outcome.
	MetricClusterSubqueries = "s2s_cluster_subqueries_total"
	// MetricClusterSubqueryDuration is the per-node sub-request latency
	// histogram the hedging deadline derives from.
	MetricClusterSubqueryDuration = "s2s_cluster_subquery_duration_seconds"
	// MetricClusterHedges counts hedged duplicate dispatches, labeled by
	// outcome (won|lost).
	MetricClusterHedges = "s2s_cluster_hedges_total"
	// MetricClusterCatalogSyncs counts catalog snapshots a node pulled
	// from the coordinator and applied.
	MetricClusterCatalogSyncs = "s2s_cluster_catalog_syncs_total"
	// MetricClusterHeartbeats counts heartbeats the membership
	// coordinator accepted, per node.
	MetricClusterHeartbeats = "s2s_cluster_heartbeats_total"
)

// Outcome label values. Every label value the middleware emits under an
// "outcome" key is declared here; docs/OBSERVABILITY.md documents each
// one and a test keeps the two in sync.
const (
	// OutcomeOK marks a fully successful operation.
	OutcomeOK = "ok"
	// OutcomeError marks a failed operation.
	OutcomeError = "error"
	// OutcomeBreakerOpen marks a source skipped by its open circuit.
	OutcomeBreakerOpen = "breaker_open"
	// OutcomeCanceled marks work abandoned because the query's context
	// expired before it could start.
	OutcomeCanceled = "canceled"
	// OutcomeRetryExhausted marks a source whose rules still failed after
	// the full retry/backoff budget.
	OutcomeRetryExhausted = "retry_exhausted"
	// OutcomeFailover marks a source failure whose attributes were still
	// served by an alternate source mapped to the same attribute.
	OutcomeFailover = "failover"
	// OutcomeShed marks a query rejected by server-side load shedding
	// (503 + Retry-After above the concurrent-query cap).
	OutcomeShed = "shed"
	// OutcomeHedgeWon / OutcomeHedgeLost label hedged dispatches: the
	// duplicate sent to the replica either delivered the answer first
	// (won) or the primary beat it after all (lost).
	OutcomeHedgeWon  = "won"
	OutcomeHedgeLost = "lost"
	// Semi-join narrowing outcomes (MetricPlannerSemiJoin): a group was
	// narrowed natively in SQL or via a key record filter; skipped all
	// its records because the first wave produced no key values; ran
	// unnarrowed because the seed exceeded the value cap; ran in the
	// first wave because its plan carried non-narrowable groups too; or
	// because the narrowed groups share no common unsatisfied condition.
	OutcomeSemiJoinSQL      = "applied_sql"
	OutcomeSemiJoinFilter   = "applied_filter"
	OutcomeSemiJoinEmpty    = "seed_empty"
	OutcomeSemiJoinCapped   = "capped"
	OutcomeSemiJoinMixed    = "mixed"
	OutcomeSemiJoinNoCommon = "no_common_condition"
	// Merge-free proof outcomes (MetricPlannerMergeFree): the barrier
	// can be skipped, or the first failed proof condition. The values
	// mirror the planner's MergeFree* constants (internal/planner
	// declares them; importing it here would invert the layering — a
	// planner test keeps the two lists in lockstep).
	OutcomeMergeFreeProved       = "proved"
	OutcomeMergeFreeUnmappedAttr = "unmapped_attribute"
	OutcomeMergeFreeRelations    = "relations"
	OutcomeMergeFreeClassKey     = "class_key"
	OutcomeMergeFreeMultiGroup   = "multi_group"
)

// SourceOutcomes lists every outcome value MetricSourceExtractTotal is
// emitted with.
var SourceOutcomes = []string{
	OutcomeOK, OutcomeError, OutcomeBreakerOpen, OutcomeCanceled,
	OutcomeRetryExhausted, OutcomeFailover,
}

// QueryOutcomes lists every outcome value MetricQueryTotal is emitted
// with.
var QueryOutcomes = []string{OutcomeOK, OutcomeError, OutcomeShed}

// ClusterSubqueryOutcomes lists every outcome value
// MetricClusterSubqueries is emitted with: a sub-request answered (ok),
// failed (error), was abandoned because its context was canceled after
// the other owner won (canceled), or was re-dispatched to the replica
// owner after the first owner failed (failover, emitted in addition to
// the failure outcome).
var ClusterSubqueryOutcomes = []string{OutcomeOK, OutcomeError, OutcomeCanceled, OutcomeFailover}

// ClusterHedgeOutcomes lists every outcome value MetricClusterHedges is
// emitted with.
var ClusterHedgeOutcomes = []string{OutcomeHedgeWon, OutcomeHedgeLost}

// SemiJoinOutcomes lists every outcome value MetricPlannerSemiJoin is
// emitted with.
var SemiJoinOutcomes = []string{
	OutcomeSemiJoinSQL, OutcomeSemiJoinFilter, OutcomeSemiJoinEmpty,
	OutcomeSemiJoinCapped, OutcomeSemiJoinMixed, OutcomeSemiJoinNoCommon,
}

// MergeFreeOutcomes lists every outcome value MetricPlannerMergeFree is
// emitted with.
var MergeFreeOutcomes = []string{
	OutcomeMergeFreeProved, OutcomeMergeFreeUnmappedAttr,
	OutcomeMergeFreeRelations, OutcomeMergeFreeClassKey,
	OutcomeMergeFreeMultiGroup,
}

// Desc describes one exported metric family.
type Desc struct {
	// Name is the Prometheus family name.
	Name string
	// Type is "counter" or "histogram".
	Type string
	// Help is the one-line exposition HELP text.
	Help string
	// Labels lists the label keys the family is emitted with.
	Labels []string
}

// descriptors is the canonical family list, in exposition order.
var descriptors = []Desc{
	{MetricQueryTotal, "counter", "Queries served, labeled by outcome (ok|error|shed).", []string{"outcome"}},
	{MetricQueryDuration, "histogram", "End-to-end query latency in seconds.", nil},
	{MetricStageDuration, "histogram", "Pipeline stage latency in seconds (parse_plan, extraction_schema, extract, generate, serialize).", []string{"stage"}},
	{MetricSourceExtractTotal, "counter", "Per-source extraction attempts, labeled by source and outcome (ok|error|breaker_open|canceled|retry_exhausted|failover).", []string{"source", "outcome"}},
	{MetricSourceExtractDuration, "histogram", "Per-source extraction latency in seconds.", []string{"source"}},
	{MetricSourceRetries, "counter", "Rule re-executions after transient failures, per source.", []string{"source"}},
	{MetricBreakerTrips, "counter", "Circuit-breaker transitions to open, per source.", []string{"source"}},
	{MetricInstances, "counter", "Matched ontology instances generated across queries.", nil},
	{MetricPlannerSourcesPruned, "counter", "Source plans the query planner pruned before extraction.", nil},
	{MetricPlannerEntriesPruned, "counter", "Mapping entries the query planner pruned before extraction.", nil},
	{MetricPlannerPushdownApplied, "counter", "Record-scope groups with predicate pushdown applied.", nil},
	{MetricPlannerMergeFree, "counter", "Merge-free proof decisions at plan time, labeled by outcome (proved|unmapped_attribute|relations|class_key|multi_group).", []string{"outcome"}},
	{MetricPlannerSemiJoin, "counter", "Semi-join narrowing decisions at runtime, labeled by outcome (applied_sql|applied_filter|seed_empty|capped|mixed|no_common_condition).", []string{"outcome"}},
	{MetricClusterSubqueries, "counter", "Scatter-gather sub-requests dispatched to cluster nodes, labeled by node and outcome (ok|error|canceled|failover).", []string{"node", "outcome"}},
	{MetricClusterSubqueryDuration, "histogram", "Per-node scatter-gather sub-request latency in seconds (the hedging deadline derives from its quantiles).", []string{"node"}},
	{MetricClusterHedges, "counter", "Hedged duplicate dispatches to replica owners, labeled by outcome (won|lost).", []string{"outcome"}},
	{MetricClusterCatalogSyncs, "counter", "Catalog snapshots pulled from the coordinator and applied.", nil},
	{MetricClusterHeartbeats, "counter", "Heartbeats the membership coordinator accepted, per node.", []string{"node"}},
}

// Descriptors returns the canonical exported-metric descriptions.
func Descriptors() []Desc {
	out := make([]Desc, len(descriptors))
	copy(out, descriptors)
	return out
}

// MetricNames returns every declared family name, in exposition order.
func MetricNames() []string {
	out := make([]string, len(descriptors))
	for i, d := range descriptors {
		out[i] = d.Name
	}
	return out
}

// Labels is one metric series' label set, e.g.
// Labels{"source": "db_1", "outcome": "ok"}.
type Labels map[string]string

// labelKey is a deterministic series key: sorted k=v pairs.
func labelKey(l Labels) string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte('\xff')
		}
		b.WriteString(k)
		b.WriteByte('\xfe')
		b.WriteString(l[k])
	}
	return b.String()
}

// Counter is a monotonically increasing series. All methods are nil-safe
// and lock-free.
type Counter struct {
	v      atomic.Uint64
	labels Labels
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// DefaultBuckets returns the log-linear latency bucket upper bounds, in
// seconds: 1..9 µs, 10..90 µs, ... up to 9 s (63 finite buckets plus the
// implicit +Inf overflow). Log-linear keeps relative error under ~11%
// across six decades with a fixed, cheap bucket count.
func DefaultBuckets() []float64 {
	out := make([]float64, 0, 63)
	for exp := -6; exp <= 0; exp++ {
		mag := math.Pow(10, float64(exp))
		for m := 1; m <= 9; m++ {
			out = append(out, float64(m)*mag)
		}
	}
	return out
}

// Histogram is a fixed-bucket latency distribution. Observations are
// atomic adds (no locks); all methods are nil-safe.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits of the observation sum
	labels  Labels
}

func newHistogram(bounds []float64, labels Labels) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1), labels: labels}
}

// Observe records one value (seconds; negatives clamp to zero).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	// First bucket whose upper bound is >= v (le semantics).
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations in seconds.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-quantile (0 < q <= 1) of the observed
// distribution from the histogram buckets, interpolating linearly
// within the bucket that crosses the target rank. Observations in the
// +Inf overflow bucket clamp to the largest finite bound. Returns 0
// when the histogram is empty. The estimate's error is bounded by the
// bucket width (~11% with DefaultBuckets); that is plenty for uses like
// the cluster's hedging deadline, which needs "roughly p90", not an
// exact order statistic.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if cum+n < target {
			cum += n
			continue
		}
		if i >= len(h.bounds) {
			// Overflow bucket: no finite upper bound to interpolate to.
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		frac := float64(target-cum) / float64(n)
		return lo + frac*(h.bounds[i]-lo)
	}
	return h.bounds[len(h.bounds)-1]
}

// Buckets returns the bucket upper bounds and the per-bucket
// (non-cumulative) counts; the final count is the +Inf overflow bucket.
func (h *Histogram) Buckets() (bounds []float64, counts []uint64) {
	if h == nil {
		return nil, nil
	}
	counts = make([]uint64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	return h.bounds, counts
}

// Registry holds the metric series of one middleware instance, keyed by
// family name and label set. Lookups take a read-lock; updates on the
// returned series are lock-free atomics. All methods are nil-safe so
// uninstrumented call paths cost nothing.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]map[string]*Counter
	histograms map[string]map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]map[string]*Counter),
		histograms: make(map[string]map[string]*Histogram),
	}
}

func copyLabels(l Labels) Labels {
	if len(l) == 0 {
		return nil
	}
	out := make(Labels, len(l))
	for k, v := range l {
		out[k] = v
	}
	return out
}

// Counter returns (creating if needed) the counter series for the family
// name and label set.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	key := labelKey(labels)
	r.mu.RLock()
	c := r.counters[name][key]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	series, ok := r.counters[name]
	if !ok {
		series = make(map[string]*Counter)
		r.counters[name] = series
	}
	if c = series[key]; c == nil {
		c = &Counter{labels: copyLabels(labels)}
		series[key] = c
	}
	return c
}

// Histogram returns (creating if needed) the histogram series for the
// family name and label set, with DefaultBuckets bounds.
func (r *Registry) Histogram(name string, labels Labels) *Histogram {
	if r == nil {
		return nil
	}
	key := labelKey(labels)
	r.mu.RLock()
	h := r.histograms[name][key]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	series, ok := r.histograms[name]
	if !ok {
		series = make(map[string]*Histogram)
		r.histograms[name] = series
	}
	if h = series[key]; h == nil {
		h = newHistogram(DefaultBuckets(), copyLabels(labels))
		series[key] = h
	}
	return h
}

// Names returns the family names with at least one series, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.counters)+len(r.histograms))
	for name := range r.counters {
		out = append(out, name)
	}
	for name := range r.histograms {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// escapeLabelValue escapes a value per the Prometheus text format.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// formatLabels renders {k="v",...} with sorted keys, plus an optional
// extra pair appended last (used for le on histogram buckets).
func formatLabels(l Labels, extraKey, extraVal string) string {
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=\"%s\"", k, escapeLabelValue(l[k]))
	}
	if extraKey != "" {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=\"%s\"", extraKey, extraVal)
	}
	if b.Len() == 0 {
		return ""
	}
	return "{" + b.String() + "}"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every populated family in the Prometheus text
// exposition format (version 0.0.4), families in canonical declaration
// order, series sorted by label set; undeclared families, if any, follow
// alphabetically.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()

	written := make(map[string]bool)
	for _, d := range descriptors {
		if err := r.writeFamily(w, d); err != nil {
			return err
		}
		written[d.Name] = true
	}
	var rest []string
	for name := range r.counters {
		if !written[name] {
			rest = append(rest, name)
		}
	}
	for name := range r.histograms {
		if !written[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		typ := "counter"
		if _, ok := r.histograms[name]; ok {
			typ = "histogram"
		}
		if err := r.writeFamily(w, Desc{Name: name, Type: typ, Help: "(undeclared)"}); err != nil {
			return err
		}
	}
	return nil
}

// writeFamily renders one family; the caller holds at least a read lock.
func (r *Registry) writeFamily(w io.Writer, d Desc) error {
	switch d.Type {
	case "counter":
		series := r.counters[d.Name]
		if len(series) == 0 {
			return nil
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", d.Name, d.Help, d.Name)
		for _, key := range sortedKeys(series) {
			c := series[key]
			fmt.Fprintf(w, "%s%s %d\n", d.Name, formatLabels(c.labels, "", ""), c.Value())
		}
	case "histogram":
		series := r.histograms[d.Name]
		if len(series) == 0 {
			return nil
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", d.Name, d.Help, d.Name)
		for _, key := range sortedKeys(series) {
			h := series[key]
			bounds, counts := h.Buckets()
			var cum uint64
			for i, bound := range bounds {
				cum += counts[i]
				if counts[i] == 0 && i < len(bounds)-1 {
					continue // elide empty interior buckets; cumulative stays exact
				}
				fmt.Fprintf(w, "%s_bucket%s %d\n", d.Name, formatLabels(h.labels, "le", formatFloat(bound)), cum)
			}
			cum += counts[len(counts)-1]
			fmt.Fprintf(w, "%s_bucket%s %d\n", d.Name, formatLabels(h.labels, "le", "+Inf"), cum)
			fmt.Fprintf(w, "%s_sum%s %s\n", d.Name, formatLabels(h.labels, "", ""), formatFloat(h.Sum()))
			fmt.Fprintf(w, "%s_count%s %d\n", d.Name, formatLabels(h.labels, "", ""), cum)
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
