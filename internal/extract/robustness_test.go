package extract

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datasource"
	"repro/internal/mapping"
	"repro/internal/obs"
)

// countingFetcher counts fetches and delegates to fn.
type countingFetcher struct {
	mu    sync.Mutex
	calls int
	fn    func(ctx context.Context, url string) (string, error)
}

func (f *countingFetcher) Fetch(ctx context.Context, url string) (string, error) {
	f.mu.Lock()
	f.calls++
	f.mu.Unlock()
	return f.fn(ctx, url)
}

func (f *countingFetcher) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func TestPermanentErrorNotRetried(t *testing.T) {
	w := newWorld(t)
	backends := FromCatalog(w.catalog)
	fetcher := &countingFetcher{fn: func(ctx context.Context, url string) (string, error) {
		return "", Permanent(fmt.Errorf("credentials rejected"))
	}}
	backends.Pages = fetcher.Fetch
	w.repo.MustRegister(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "wpage_81",
		Rule: mapping.Rule{Code: paperWebLRule}, Scenario: mapping.SingleRecord,
	})
	m := NewManager(w.repo, backends, Options{Retries: 5, RetryBackoff: -1})
	rs, err := m.Extract(context.Background(), []string{"thing.product.brand"})
	if err != nil {
		t.Fatal(err)
	}
	if got := fetcher.count(); got != 1 {
		t.Errorf("fetch attempts = %d, want 1 (permanent errors must fail fast)", got)
	}
	if rs.Stats.Retries != 0 {
		t.Errorf("retries = %d, want 0", rs.Stats.Retries)
	}
	if len(rs.Errors) != 1 || !IsPermanent(rs.Errors[0]) {
		t.Fatalf("errors = %v, want one permanent error", rs.Errors)
	}
}

func TestRuleMisconfigurationIsPermanent(t *testing.T) {
	w := newWorld(t)
	// The rule compiles but defines no variable for the mapped attribute —
	// a mapping mistake no retry can fix.
	w.repo.MustRegister(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "wpage_81",
		Rule: mapping.Rule{Code: `var unrelated = "x"`},
	})
	m := w.manager(Options{Retries: 5, RetryBackoff: -1})
	rs, err := m.Extract(context.Background(), []string{"thing.product.brand"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Errors) != 1 || !IsPermanent(rs.Errors[0]) {
		t.Fatalf("errors = %v, want one permanent misconfiguration error", rs.Errors)
	}
	if rs.Stats.Retries != 0 {
		t.Errorf("retries = %d, want 0 (misconfigurations must not be retried)", rs.Stats.Retries)
	}
}

func TestTransientErrorIsRetried(t *testing.T) {
	w := newWorld(t)
	backends := FromCatalog(w.catalog)
	fetcher := &countingFetcher{fn: func(ctx context.Context, url string) (string, error) {
		return "", fmt.Errorf("transient network failure")
	}}
	backends.Pages = fetcher.Fetch
	w.repo.MustRegister(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "wpage_81",
		Rule: mapping.Rule{Code: paperWebLRule},
	})
	m := NewManager(w.repo, backends, Options{Retries: 3, RetryBackoff: -1})
	rs, err := m.Extract(context.Background(), []string{"thing.product.brand"})
	if err != nil {
		t.Fatal(err)
	}
	if got := fetcher.count(); got != 4 {
		t.Errorf("fetch attempts = %d, want 4 (1 + 3 retries)", got)
	}
	if len(rs.Errors) != 1 {
		t.Fatalf("errors = %v", rs.Errors)
	}
}

// TestFailedPageReadIsNotShared runs two web sources with the same URL
// in one run, concurrently and without retries. Their WebL rules share
// the run's page slot: the one that waited must read again rather than
// inherit the failure, so exactly one rule fails and the page is read
// exactly twice, whichever source reads first.
func TestFailedPageReadIsNotShared(t *testing.T) {
	w := newWorld(t)
	backends := FromCatalog(w.catalog)
	inner := backends.Pages
	first := true
	fetcher := &countingFetcher{fn: func(ctx context.Context, url string) (string, error) {
		if first {
			first = false
			// Hold the slot long enough for the other source to queue on it.
			time.Sleep(20 * time.Millisecond)
			return "", fmt.Errorf("transient network failure")
		}
		return inner(ctx, url)
	}}
	backends.Pages = fetcher.Fetch
	must(t, w.repo.Sources().Register(datasource.Definition{
		ID: "wpage_82", Kind: datasource.KindWeb, URL: "http://www.eshop.com/products/watches.html",
	}))
	w.repo.MustRegister(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "wpage_81",
		Rule: mapping.Rule{Code: paperWebLRule}, Scenario: mapping.SingleRecord,
	})
	w.repo.MustRegister(mapping.Entry{
		AttributeID: "thing.product.model", SourceID: "wpage_82",
		Rule: mapping.Rule{Code: `var model = Text(GetURL("http://www.eshop.com/products/watches.html"))`},
	})
	m := NewManager(w.repo, backends, Options{})
	rs, err := m.Extract(context.Background(), []string{"thing.product.brand", "thing.product.model"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Errors) != 1 || len(rs.Fragments) != 1 {
		t.Errorf("errors = %v, fragments = %d; want exactly one failed rule", rs.Errors, len(rs.Fragments))
	}
	if got := fetcher.count(); got != 2 {
		t.Errorf("page reads = %d, want 2 (the failed read, then one shared success)", got)
	}
}

func TestRetryExhaustedOutcomeMetric(t *testing.T) {
	w := newWorld(t)
	backends := FromCatalog(w.catalog)
	backends.Pages = fetcherFunc(func(ctx context.Context, url string) (string, error) {
		return "", fmt.Errorf("still down")
	})
	w.repo.MustRegister(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "wpage_81",
		Rule: mapping.Rule{Code: paperWebLRule},
	})
	reg := obs.NewRegistry()
	ctx := obs.ContextWithMetrics(context.Background(), reg)
	m := NewManager(w.repo, backends, Options{Retries: 2, RetryBackoff: -1})
	if _, err := m.Extract(ctx, []string{"thing.product.brand"}); err != nil {
		t.Fatal(err)
	}
	got := reg.Counter(obs.MetricSourceExtractTotal,
		obs.Labels{"source": "wpage_81", "outcome": obs.OutcomeRetryExhausted}).Value()
	if got != 1 {
		t.Errorf("retry_exhausted counter = %v, want 1", got)
	}
}

// TestBackoffDelaysGrowGeometrically drives the backoff hooks directly:
// with the rng pinned to 1.0 the jittered delay equals its ceiling, so
// the sequence must double from RetryBackoff up to retryBackoffCap.
func TestBackoffDelaysGrowGeometrically(t *testing.T) {
	w := newWorld(t)
	base := retryBackoffCap / 8
	m := w.manager(Options{Retries: 8, RetryBackoff: base})
	m.randFloat = func() float64 { return 1.0 }
	want := []time.Duration{
		base, 2 * base, 4 * base,
		retryBackoffCap, retryBackoffCap, retryBackoffCap,
	}
	for attempt, exp := range want {
		if got := m.backoffDelay(attempt); got != exp {
			t.Errorf("attempt %d: delay = %v, want %v", attempt, got, exp)
		}
	}
}

func TestBackoffDelaysJitterWithinRange(t *testing.T) {
	w := newWorld(t)
	base := retryBackoffCap / 5
	m := w.manager(Options{Retries: 4, RetryBackoff: base})
	// Real rng: every draw must stay within [0, min(cap, base<<attempt)).
	for attempt := 0; attempt < 10; attempt++ {
		ceil := base << uint(attempt)
		if ceil > retryBackoffCap || ceil <= 0 {
			ceil = retryBackoffCap
		}
		for i := 0; i < 100; i++ {
			d := m.backoffDelay(attempt)
			if d < 0 || d > ceil {
				t.Fatalf("attempt %d: delay %v outside [0, %v]", attempt, d, ceil)
			}
		}
	}
}

// TestBackoffSleepsBetweenRetries records what the retry loop actually
// sleeps through the injected sleep hook.
func TestBackoffSleepsBetweenRetries(t *testing.T) {
	w := newWorld(t)
	backends := FromCatalog(w.catalog)
	backends.Pages = fetcherFunc(func(ctx context.Context, url string) (string, error) {
		return "", fmt.Errorf("down")
	})
	w.repo.MustRegister(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "wpage_81",
		Rule: mapping.Rule{Code: paperWebLRule},
	})
	base := retryBackoffCap / 2
	m := NewManager(w.repo, backends, Options{Retries: 3, RetryBackoff: base})
	m.randFloat = func() float64 { return 1.0 }
	var mu sync.Mutex
	var slept []time.Duration
	m.sleep = func(ctx context.Context, d time.Duration) bool {
		mu.Lock()
		slept = append(slept, d)
		mu.Unlock()
		return true // don't actually wait
	}
	if _, err := m.Extract(context.Background(), []string{"thing.product.brand"}); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{base, retryBackoffCap, retryBackoffCap}
	mu.Lock()
	defer mu.Unlock()
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("sleep %d = %v, want %v (full sequence %v)", i, slept[i], want[i], slept)
		}
	}
}

func TestFailoverMarking(t *testing.T) {
	w := newWorld(t)
	backends := FromCatalog(w.catalog)
	backends.Pages = fetcherFunc(func(ctx context.Context, url string) (string, error) {
		return "", fmt.Errorf("web replica down")
	})
	// Two sources map brand; only the web one fails, so its loss is a
	// failover: the attribute is still served.
	w.repo.MustRegister(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "xml_7",
		Rule: mapping.Rule{Code: "/catalog/watch/brand"},
	})
	w.repo.MustRegister(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "wpage_81",
		Rule: mapping.Rule{Code: paperWebLRule},
	})
	reg := obs.NewRegistry()
	ctx := obs.ContextWithMetrics(context.Background(), reg)
	m := NewManager(w.repo, backends, Options{RetryBackoff: -1})
	rs, err := m.Extract(ctx, []string{"thing.product.brand"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Fragments) != 1 || rs.Fragments[0].SourceID != "xml_7" {
		t.Fatalf("fragments = %+v", rs.Fragments)
	}
	if len(rs.Errors) != 1 {
		t.Fatalf("errors = %v", rs.Errors)
	}
	if !rs.Errors[0].Failover {
		t.Error("error not marked as failover although xml_7 still served the attribute")
	}
	if !strings.Contains(rs.Errors[0].Error(), "failover") {
		t.Errorf("error text should mention failover: %s", rs.Errors[0].Error())
	}
	got := reg.Counter(obs.MetricSourceExtractTotal,
		obs.Labels{"source": "wpage_81", "outcome": obs.OutcomeFailover}).Value()
	if got != 1 {
		t.Errorf("failover counter = %v, want 1", got)
	}
}

func TestFailoverNotMarkedWhenAttributeLost(t *testing.T) {
	w := newWorld(t)
	backends := FromCatalog(w.catalog)
	backends.Pages = fetcherFunc(func(ctx context.Context, url string) (string, error) {
		return "", fmt.Errorf("down")
	})
	// Only one source maps brand: its loss loses the attribute.
	w.repo.MustRegister(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "wpage_81",
		Rule: mapping.Rule{Code: paperWebLRule},
	})
	m := NewManager(w.repo, backends, Options{RetryBackoff: -1})
	rs, err := m.Extract(context.Background(), []string{"thing.product.brand"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Errors) != 1 || rs.Errors[0].Failover {
		t.Fatalf("errors = %+v, want one non-failover error", rs.Errors)
	}
}

func TestQueryBudgetBoundsExtraction(t *testing.T) {
	w := newWorld(t)
	backends := FromCatalog(w.catalog)
	backends.Pages = fetcherFunc(func(ctx context.Context, url string) (string, error) {
		time.Sleep(2 * time.Second)
		return "", fmt.Errorf("too slow to matter")
	})
	w.repo.MustRegister(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "wpage_81",
		Rule: mapping.Rule{Code: paperWebLRule},
	})
	m := NewManager(w.repo, backends, Options{QueryBudget: 50 * time.Millisecond, RetryBackoff: -1})
	start := time.Now()
	rs, err := m.Extract(context.Background(), []string{"thing.product.brand"})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("extraction took %v, budget was 50ms", elapsed)
	}
	if len(rs.Errors) != 1 {
		t.Fatalf("errors = %v", rs.Errors)
	}
}

func TestIsCircuitOpenWrappedChains(t *testing.T) {
	base := errCircuitOpen{sourceID: "s1", retryAt: time.Now()}
	cases := []error{
		base,
		fmt.Errorf("wrapped: %w", base),
		SourceError{SourceID: "s1", Err: base},
		fmt.Errorf("outer: %w", SourceError{SourceID: "s1", Err: fmt.Errorf("inner: %w", base)}),
	}
	for i, err := range cases {
		if !IsCircuitOpen(err) {
			t.Errorf("case %d: IsCircuitOpen(%v) = false, want true", i, err)
		}
	}
	for i, err := range []error{nil, errors.New("plain"), SourceError{Err: errors.New("x")}} {
		if IsCircuitOpen(err) {
			t.Errorf("negative case %d: IsCircuitOpen(%v) = true, want false", i, err)
		}
	}
}

// TestSlotWaitEndsAtDeadline hangs the one read of a document on a
// backend that ignores its context. The rule that started the read
// abandons it at its deadline; a second rule that waits on the
// document's slot behind the hung read returns at its own deadline too,
// with an error wrapping context.DeadlineExceeded. Once the backend
// answers, the abandoned read fills and releases the slot, and a later
// reader gets the document without a second backend call.
func TestSlotWaitEndsAtDeadline(t *testing.T) {
	docs := newRunDocs()
	release := make(chan struct{})
	var mu sync.Mutex
	calls := 0
	hung := func(ctx context.Context, path string) (string, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		<-release
		return "brand=Seiko", nil
	}
	read := func(ctx context.Context) (string, error) {
		return readDoc(ctx, docs, docs.text, hung, "prices.txt")
	}
	// within fails the test instead of hanging it when read does not
	// return at its deadline.
	within := func(ctx context.Context, name string) error {
		t.Helper()
		done := make(chan error, 1)
		go func() {
			_, err := read(ctx)
			done <- err
		}()
		select {
		case err := <-done:
			return err
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: read did not return at its deadline", name)
			return nil
		}
	}
	for _, name := range []string{"reader", "waiter"} {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		err := within(ctx, name)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: err = %v, want one wrapping context.DeadlineExceeded", name, err)
		}
	}
	close(release)
	doc, err := read(context.Background())
	if err != nil || doc != "brand=Seiko" {
		t.Fatalf("later reader: %q, %v; want the document the abandoned read fetched", doc, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Errorf("backend calls = %d, want 1 (the abandoned read fills the slot)", calls)
	}
}
