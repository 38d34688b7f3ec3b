package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := DefaultBuckets()
	if len(bounds) != 63 {
		t.Fatalf("bounds = %d, want 63", len(bounds))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("bounds not ascending at %d: %v <= %v", i, bounds[i], bounds[i-1])
		}
	}

	h := newHistogram(bounds, nil)
	// A value exactly on a boundary lands in that boundary's bucket (le
	// semantics), a value just above in the next.
	h.Observe(bounds[10])
	h.Observe(bounds[10] * 1.0001)
	// Below the lowest boundary → first bucket; above the highest → +Inf.
	h.Observe(bounds[0] / 2)
	h.Observe(bounds[len(bounds)-1] * 2)
	// Zero and negative clamp into the first bucket.
	h.Observe(0)
	h.Observe(-1)

	_, counts := h.Buckets()
	if counts[10] != 1 {
		t.Errorf("boundary bucket count = %d, want 1", counts[10])
	}
	if counts[11] != 1 {
		t.Errorf("next bucket count = %d, want 1", counts[11])
	}
	if counts[0] != 3 {
		t.Errorf("first bucket count = %d, want 3 (underflow + zero + negative)", counts[0])
	}
	if counts[len(counts)-1] != 1 {
		t.Errorf("+Inf bucket count = %d, want 1", counts[len(counts)-1])
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
}

func TestHistogramSum(t *testing.T) {
	h := newHistogram(DefaultBuckets(), nil)
	h.Observe(0.25)
	h.Observe(0.5)
	h.ObserveDuration(250 * time.Millisecond)
	if got := h.Sum(); got < 0.999 || got > 1.001 {
		t.Errorf("sum = %v, want 1.0", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var nilH *Histogram
	if got := nilH.Quantile(0.9); got != 0 {
		t.Errorf("nil histogram quantile = %v, want 0", got)
	}
	h := newHistogram(DefaultBuckets(), nil)
	if got := h.Quantile(0.9); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}

	// 90 fast observations and 10 slow ones: the p50 estimate must stay
	// near the fast mode and the p99 must land at the slow mode. Bucket
	// interpolation bounds the estimate by the enclosing bucket, so
	// assert bucket-level, not exact, positions.
	for i := 0; i < 90; i++ {
		h.Observe(0.001)
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
	}
	if got := h.Quantile(0.5); got <= 0 || got > 0.002 {
		t.Errorf("p50 = %v, want within the 1ms bucket", got)
	}
	if got := h.Quantile(0.99); got < 0.4 || got > 0.6 {
		t.Errorf("p99 = %v, want within the 500ms bucket", got)
	}
	// q clamps: q>1 behaves as the max, q<=0 as zero.
	if got := h.Quantile(2); got < 0.4 {
		t.Errorf("q>1 quantile = %v, want max-bucket estimate", got)
	}
	if got := h.Quantile(0); got != 0 {
		t.Errorf("q=0 quantile = %v, want 0", got)
	}

	// Overflow-only observations clamp to the largest finite bound.
	over := newHistogram(DefaultBuckets(), nil)
	over.Observe(100)
	bounds := DefaultBuckets()
	if got := over.Quantile(0.9); got != bounds[len(bounds)-1] {
		t.Errorf("overflow quantile = %v, want %v", got, bounds[len(bounds)-1])
	}
}

func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				r.Counter(MetricQueryTotal, Labels{"outcome": "ok"}).Inc()
				r.Histogram(MetricQueryDuration, nil).Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter(MetricQueryTotal, Labels{"outcome": "ok"}).Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	h := r.Histogram(MetricQueryDuration, nil)
	if h.Count() != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
	wantSum := float64(workers*perWorker) * 0.001
	if got := h.Sum(); got < wantSum*0.999 || got > wantSum*1.001 {
		t.Errorf("histogram sum = %v, want ~%v", got, wantSum)
	}
}

func TestRegistrySeriesIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter(MetricSourceRetries, Labels{"source": "db_1"})
	b := r.Counter(MetricSourceRetries, Labels{"source": "db_1"})
	c := r.Counter(MetricSourceRetries, Labels{"source": "db_2"})
	if a != b {
		t.Error("same labels returned distinct series")
	}
	if a == c {
		t.Error("different labels shared a series")
	}
	// Mutating the caller's label map must not corrupt the stored series.
	l := Labels{"source": "x"}
	d := r.Counter(MetricSourceRetries, l)
	l["source"] = "y"
	if e := r.Counter(MetricSourceRetries, Labels{"source": "x"}); d != e {
		t.Error("stored labels aliased the caller's map")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter(MetricQueryTotal, nil).Inc()
	r.Counter(MetricQueryTotal, nil).Add(3)
	if r.Counter(MetricQueryTotal, nil).Value() != 0 {
		t.Error("nil counter has a value")
	}
	r.Histogram(MetricQueryDuration, nil).Observe(1)
	if r.Histogram(MetricQueryDuration, nil).Count() != 0 {
		t.Error("nil histogram has a count")
	}
	if r.Names() != nil {
		t.Error("nil registry has names")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Error(err)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter(MetricQueryTotal, Labels{"outcome": "ok"}).Add(7)
	r.Counter(MetricSourceExtractTotal, Labels{"source": `we"ird\src`, "outcome": "error"}).Inc()
	r.Histogram(MetricQueryDuration, nil).Observe(0.0015)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP s2s_query_total ",
		"# TYPE s2s_query_total counter",
		`s2s_query_total{outcome="ok"} 7`,
		"# TYPE s2s_query_duration_seconds histogram",
		`s2s_query_duration_seconds_bucket{le="0.002"} 1`,
		`s2s_query_duration_seconds_bucket{le="+Inf"} 1`,
		"s2s_query_duration_seconds_sum 0.0015",
		"s2s_query_duration_seconds_count 1",
		`s2s_source_extract_total{outcome="error",source="we\"ird\\src"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Cumulative counts must be monotone: the +Inf bucket equals _count.
	if strings.Count(out, "s2s_query_duration_seconds_bucket") == 0 {
		t.Error("no histogram buckets emitted")
	}
}

func TestRegistryNames(t *testing.T) {
	r := NewRegistry()
	r.Counter(MetricQueryTotal, Labels{"outcome": "ok"}).Inc()
	r.Histogram(MetricStageDuration, Labels{"stage": "extract"}).Observe(0.1)
	names := r.Names()
	if len(names) != 2 || names[0] != MetricQueryTotal || names[1] != MetricStageDuration {
		t.Errorf("names = %v", names)
	}
}

// TestLookupNeverCreates checks the read-only lookup: an absent series
// reads as nil (zero through Value and Sum) and stays absent, and an
// existing one is the series the creating getters return.
func TestLookupNeverCreates(t *testing.T) {
	r := NewRegistry()
	c, h := r.Lookup(MetricQueryTotal, Labels{"outcome": "ok"})
	if c != nil || h != nil || c.Value() != 0 || h.Sum() != 0 {
		t.Fatalf("absent series = %v, %v", c, h)
	}
	if names := r.Names(); len(names) != 0 {
		t.Fatalf("lookup created series: %v", names)
	}
	r.Counter(MetricQueryTotal, Labels{"outcome": "ok"}).Add(3)
	r.Histogram(MetricStageDuration, Labels{"stage": "extract"}).Observe(0.5)
	if c, _ := r.Lookup(MetricQueryTotal, Labels{"outcome": "ok"}); c.Value() != 3 {
		t.Errorf("counter = %d, want 3", c.Value())
	}
	if _, h := r.Lookup(MetricStageDuration, Labels{"stage": "extract"}); h.Sum() != 0.5 {
		t.Errorf("histogram sum = %g, want 0.5", h.Sum())
	}
	var nilReg *Registry
	if c, h := nilReg.Lookup(MetricQueryTotal, nil); c != nil || h != nil {
		t.Error("nil registry lookup returned a series")
	}
}

func TestDescriptorsCoverConstants(t *testing.T) {
	want := []string{
		MetricQueryTotal, MetricQueryDuration, MetricStageDuration,
		MetricSourceExtractTotal, MetricSourceExtractDuration, MetricSourceRetries,
		MetricBreakerTrips, MetricInstances, MetricAnswerErrors,
		MetricPlannerSourcesPruned, MetricPlannerEntriesPruned,
		MetricPlannerPushdownApplied, MetricPlannerMergeFree,
		MetricPlannerSemiJoin,
		MetricClusterSubqueries, MetricClusterSubqueryDuration,
		MetricClusterHedges, MetricClusterCatalogSyncs, MetricClusterHeartbeats,
	}
	got := MetricNames()
	if len(got) != len(want) {
		t.Fatalf("descriptors = %d, want %d", len(got), len(want))
	}
	index := map[string]bool{}
	for _, n := range got {
		index[n] = true
	}
	for _, n := range want {
		if !index[n] {
			t.Errorf("constant %s missing from Descriptors", n)
		}
	}
	for _, d := range Descriptors() {
		if d.Type != "counter" && d.Type != "histogram" {
			t.Errorf("%s has unknown type %q", d.Name, d.Type)
		}
		if d.Help == "" {
			t.Errorf("%s has no help text", d.Name)
		}
	}
}
