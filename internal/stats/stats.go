// Package stats maintains the per-source extraction statistics behind
// query planner v3's cost-based source ordering (docs/PERFORMANCE.md,
// "Cost-based ordering & semi-joins"). For every data source the
// registry tracks observed cardinality (raw values per extraction),
// match selectivity per query shape (values surviving the planner's
// record filters), and a latency sketch with quantiles — each as an
// exponentially weighted moving estimate, so the numbers track drift in
// the partner source rather than its whole history.
//
// The registry is deliberately clock-free: callers measure latency and
// pass it in, and nothing here reads time.Now or draws randomness. That
// keeps the package inside the determinism analyzer's scope (identical
// observation sequences produce identical estimates and identical
// source orders), which is what makes cost-ordered extraction
// reproducible under the chaos suites.
//
// Lifetime: the extractor manager owns one registry for its own
// lifetime. Unlike the compiled-rule and rewrite caches, statistics
// survive Manager.InvalidateCache — a catalog edit changes what a rule
// extracts, not how big or slow its source is — and are dropped only by
// an explicit Reset.
package stats

import (
	"sort"
	"sync"
	"time"
)

// Alpha is the EWMA smoothing factor: each observation contributes
// Alpha of the new estimate, so the effective memory is roughly
// 1/Alpha ≈ 8 recent extractions per source.
const Alpha = 0.125

// Cold-start defaults, returned before the first observation. They are
// intentionally neutral: every cold source scores identically, so the
// cost ordering degrades to the deterministic catalog order until real
// observations arrive.
const (
	// DefaultCardinality is the assumed raw value count per extraction.
	DefaultCardinality = 100.0
	// DefaultSelectivity assumes no pruning (every value kept).
	DefaultSelectivity = 1.0
	// DefaultLatency is the assumed per-source extraction latency.
	DefaultLatency = 50 * time.Millisecond
)

// shapeBound caps the per-source selectivity table. Query shapes are
// few (distinct class + condition signatures); past the bound the table
// is flushed wholesale, like the other bounded caches in this repo.
const shapeBound = 64

// latencyBuckets is the sketch resolution: bucket i covers latencies in
// [2^i, 2^(i+1)) microseconds, so 40 buckets span sub-microsecond rule
// hits through ~18-minute timeouts.
const latencyBuckets = 40

// Sample is one observed extraction of one source for one query shape.
type Sample struct {
	// Values is the raw value count the source's rules produced.
	Values int
	// Kept is the value count that survived the planner's record-scoped
	// filters (Kept == Values when no filter applied).
	Kept int
	// Latency is the source's wall-clock extraction duration, measured
	// by the caller — the registry never reads the clock itself.
	Latency time.Duration
}

// Estimate is the registry's current belief about one source under one
// query shape.
type Estimate struct {
	// Cardinality is the EWMA of raw values per extraction.
	Cardinality float64
	// Selectivity is the EWMA of Kept/Values for the query shape, in
	// [0, 1]; lower means the source's records are pruned harder.
	Selectivity float64
	// Latency is the EWMA of extraction duration.
	Latency time.Duration
	// Samples counts observations folded into the source's estimates.
	Samples uint64
}

// Cost is the scalar the planner orders by: expected latency (seconds)
// times the expected number of useful values (cardinality ×
// selectivity, floored so a perfectly-pruning source still pays its
// latency). Lower cost runs earlier — cheapest × most-pruning first.
func (e Estimate) Cost() float64 {
	useful := e.Cardinality * e.Selectivity
	if useful < 1 {
		useful = 1
	}
	return e.Latency.Seconds() * useful
}

// sourceStats is one source's mutable state.
type sourceStats struct {
	cardinality float64
	latency     float64 // seconds
	selectivity map[string]float64
	samples     uint64
	sketch      [latencyBuckets]float64
	sketchTotal float64
}

// Registry holds per-source statistics. Safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	sources map[string]*sourceStats
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{sources: make(map[string]*sourceStats)}
}

// ewma folds x into the running estimate v.
func ewma(v, x float64) float64 { return v + Alpha*(x-v) }

// Observe folds one extraction sample into sourceID's estimates. shape
// identifies the query shape for selectivity tracking; "" tracks an
// unshaped run (selectivity is still recorded, under the empty shape).
func (r *Registry) Observe(sourceID, shape string, s Sample) {
	if s.Values < 0 || s.Kept < 0 || s.Kept > s.Values {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.sources[sourceID]
	if !ok {
		st = &sourceStats{
			cardinality: DefaultCardinality,
			latency:     DefaultLatency.Seconds(),
			selectivity: make(map[string]float64, 4),
		}
		r.sources[sourceID] = st
	}
	st.cardinality = ewma(st.cardinality, float64(s.Values))
	st.latency = ewma(st.latency, s.Latency.Seconds())
	sel := DefaultSelectivity
	if s.Values > 0 {
		sel = float64(s.Kept) / float64(s.Values)
	}
	if prev, ok := st.selectivity[shape]; ok {
		st.selectivity[shape] = ewma(prev, sel)
	} else {
		if len(st.selectivity) >= shapeBound {
			st.selectivity = make(map[string]float64, 4)
		}
		st.selectivity[shape] = ewma(DefaultSelectivity, sel)
	}
	st.samples++

	// Latency sketch: existing mass decays by (1-Alpha), the new sample
	// lands with weight Alpha — the bucket masses stay an exponentially
	// weighted histogram of recent latencies.
	b := latencyBucket(s.Latency)
	for i := range st.sketch {
		st.sketch[i] *= 1 - Alpha
	}
	st.sketch[b] += Alpha
	st.sketchTotal = st.sketchTotal*(1-Alpha) + Alpha
}

// latencyBucket maps a duration to its sketch bucket.
func latencyBucket(d time.Duration) int {
	us := d.Microseconds()
	b := 0
	for us > 1 && b < latencyBuckets-1 {
		us >>= 1
		b++
	}
	return b
}

// Estimate returns the current belief about sourceID under shape.
// Sources (or shapes) never observed get the cold-start defaults; a
// known source with an unknown shape gets its real cardinality and
// latency with the default selectivity.
func (r *Registry) Estimate(sourceID, shape string) Estimate {
	r.mu.RLock()
	defer r.mu.RUnlock()
	st, ok := r.sources[sourceID]
	if !ok {
		return Estimate{
			Cardinality: DefaultCardinality,
			Selectivity: DefaultSelectivity,
			Latency:     DefaultLatency,
		}
	}
	sel, ok := st.selectivity[shape]
	if !ok {
		sel = DefaultSelectivity
	}
	return Estimate{
		Cardinality: st.cardinality,
		Selectivity: sel,
		Latency:     time.Duration(st.latency * float64(time.Second)),
		Samples:     st.samples,
	}
}

// LatencyQuantile returns the q-quantile (0 < q ≤ 1) of sourceID's
// recent extraction latency from the decayed sketch, or DefaultLatency
// before any observation. The value is the upper bound of the bucket
// holding the quantile, so it is conservative by at most 2x.
func (r *Registry) LatencyQuantile(sourceID string, q float64) time.Duration {
	r.mu.RLock()
	defer r.mu.RUnlock()
	st, ok := r.sources[sourceID]
	if !ok || st.sketchTotal <= 0 {
		return DefaultLatency
	}
	target := q * st.sketchTotal
	cum := 0.0
	for i, mass := range st.sketch {
		cum += mass
		if cum >= target {
			return time.Duration(int64(1)<<uint(i+1)) * time.Microsecond
		}
	}
	return time.Duration(int64(1)<<latencyBuckets) * time.Microsecond
}

// Order returns sourceIDs sorted by ascending Cost under shape. The
// sort is stable, so sources with equal cost (all-cold registries in
// particular) keep their incoming — catalog — order, and the result is
// a fresh slice (the input is never mutated).
func (r *Registry) Order(sourceIDs []string, shape string) []string {
	out := append([]string(nil), sourceIDs...)
	costs := make([]float64, len(out))
	for i, id := range out {
		costs[i] = r.Estimate(id, shape).Cost()
	}
	idx := make([]int, len(out))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return costs[idx[a]] < costs[idx[b]] })
	ordered := make([]string, len(out))
	for k, i := range idx {
		ordered[k] = out[i]
	}
	return ordered
}

// Samples reports how many observations sourceID has absorbed (0 for
// unknown sources).
func (r *Registry) Samples(sourceID string) uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	st, ok := r.sources[sourceID]
	if !ok {
		return 0
	}
	return st.samples
}

// Len reports how many sources hold statistics.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.sources)
}

// Reset drops every statistic, returning the registry to cold start.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sources = make(map[string]*sourceStats)
}
