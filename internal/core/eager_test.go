package core_test

// eager_test.go pins the eager path's contract: on a world whose
// queries the planner proves merge-free (the flat paper ontology — no
// relations, no class keys), QueryToStream — eager for JSON and XML,
// materialized for the rest — produces byte-identical output to QueryTo
// for every query and format; an eager run whose writer fails leaves no
// goroutine behind; and the multi-query batch pipeline answers exactly
// like N sequential single queries.

import (
	"context"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/instance"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/workload"
)

func buildFlatWorld(t *testing.T, opts extract.Options) *core.Middleware {
	t.Helper()
	spec := workload.Spec{
		DBSources: 2, XMLSources: 2, WebSources: 2, TextSources: 2,
		RecordsPerSource: 12,
		Seed:             21,
		FlatOntology:     true,
	}
	world := workload.MustGenerate(spec)
	mw, err := core.New(core.Config{
		Ontology: world.Ontology,
		Backends: extract.FromCatalog(world.Catalog),
		Extract:  opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := world.Apply(mw); err != nil {
		t.Fatal(err)
	}
	return mw
}

// TestFlatWorldProvesMergeFree guards the fixture itself: every
// equivalence query must prove merge-free on the flat world, otherwise
// the eager tests below would silently exercise the materialized path.
func TestFlatWorldProvesMergeFree(t *testing.T) {
	ctx := context.Background()
	mw := buildFlatWorld(t, extract.Options{})
	for _, q := range equivalenceQueries {
		_, mergeFree, err := mw.PlanMergeFree(ctx, q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if !mergeFree {
			t.Errorf("%q: not proved merge-free on the flat world", q)
		}
	}
	if n := mw.Metrics().Counter(obs.MetricPlannerMergeFree, obs.Labels{"outcome": obs.OutcomeMergeFreeProved}).Value(); n == 0 {
		t.Error("s2s_planner_mergefree_total{outcome=proved} = 0, want > 0")
	}
}

// TestEagerStreamingEquivalence is the byte-equivalence suite on the
// flat world: JSON and XML answers stream eagerly (small windows force
// multi-window interleaving across sources), the other formats
// materialize, and all must match QueryTo byte for byte.
func TestEagerStreamingEquivalence(t *testing.T) {
	checkStreamBytesMatchQueryTo(t, buildFlatWorld)
}

// TestEagerResultMatchesBarrier compares the structured result — counts
// and error lists — returned alongside the eager bytes with the
// materialized one.
func TestEagerResultMatchesBarrier(t *testing.T) {
	checkStreamResultMatchesQueryTo(t, buildFlatWorld)
}

// failAfterFirstWrite accepts one chunk, then fails every write.
type failAfterFirstWrite struct{ writes int }

var errWriterGone = errors.New("writer gone")

func (w *failAfterFirstWrite) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > 1 {
		return 0, errWriterGone
	}
	return len(p), nil
}

// TestEagerWriterFailureLeavesNoGoroutines fails the writer of an eager
// query after its first chunk: QueryToStream must return that error, and
// the extraction producer must be gone — Stream.Drain released it, so
// its deadline-budget cancel ran — which shows as the goroutine count
// settling back to where it started.
func TestEagerWriterFailureLeavesNoGoroutines(t *testing.T) {
	mw := buildFlatWorld(t, extract.Options{StreamBatchRecords: 1, QueryBudget: time.Minute})
	ctx := context.Background()
	// Warm the caches (and any lazily started runtime goroutines) first.
	if _, _, err := mw.QueryToStream(ctx, io.Discard, "SELECT product", instance.FormatJSON); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	w := &failAfterFirstWrite{}
	_, _, err := mw.QueryToStream(ctx, w, "SELECT product", instance.FormatJSON)
	if !errors.Is(err, errWriterGone) {
		t.Fatalf("QueryToStream error = %v, want the writer's error", err)
	}
	if w.writes < 2 {
		t.Fatalf("writer saw %d writes; the failure never triggered", w.writes)
	}
	if report := leakcheck.Settle(before); report != "" {
		t.Fatalf("after the failed eager query: %s", report)
	}
}

// TestQueryBatchMatchesSequential runs the equivalence suite as one
// batch and as N sequential queries on identically built worlds; every
// per-query result must serialize byte-identically, and a bad query in
// the batch must fail alone.
func TestQueryBatchMatchesSequential(t *testing.T) {
	ctx := context.Background()
	seq := buildEquivalenceWorld(t, extract.Options{})
	batch := buildEquivalenceWorld(t, extract.Options{})

	results, errs := batch.QueryBatchTo(ctx, equivalenceQueries, nil)
	for i, q := range equivalenceQueries {
		if errs[i] != nil {
			t.Fatalf("batch %q: %v", q, errs[i])
		}
		want, err := seq.QueryString(ctx, q, instance.FormatJSON)
		if err != nil {
			t.Fatalf("sequential %q: %v", q, err)
		}
		got, err := batch.Generator().SerializeString(results[i], instance.FormatJSON)
		if err != nil {
			t.Fatalf("serializing batch result %q: %v", q, err)
		}
		if got != want {
			t.Errorf("%q: batch result diverges from sequential\nwant:\n%s\ngot:\n%s", q, clip(want), clip(got))
		}
	}

	queries := []string{"SELECT product", "SELECT nonsense FROM", "SELECT provider"}
	results, errs = batch.QueryBatchTo(ctx, queries, nil)
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("good queries failed: %v / %v", errs[0], errs[2])
	}
	if errs[1] == nil {
		t.Error("malformed query in batch did not fail")
	}
	if results[0] == nil || results[2] == nil || results[1] != nil {
		t.Errorf("result slots = [%v %v %v], want [set nil set]",
			results[0] != nil, results[1] != nil, results[2] != nil)
	}
}

// TestQueryBatchToSinksEveryResult checks the serializing variant: the
// sink sees each successful result exactly once, in query order, and a
// sink error becomes that query's error.
func TestQueryBatchToSinksEveryResult(t *testing.T) {
	ctx := context.Background()
	mw := buildEquivalenceWorld(t, extract.Options{})
	queries := []string{"SELECT product", "SELECT provider", "SELECT watch"}
	var seen []int
	_, errs := mw.QueryBatchTo(ctx, queries, func(i int, res *instance.Result) error {
		seen = append(seen, i)
		if res == nil {
			t.Errorf("sink %d: nil result", i)
		}
		if i == 1 {
			return context.Canceled
		}
		return nil
	})
	if len(seen) != 3 || seen[0] != 0 || seen[1] != 1 || seen[2] != 2 {
		t.Errorf("sink order = %v, want [0 1 2]", seen)
	}
	if errs[0] != nil || errs[2] != nil {
		t.Errorf("unexpected errors: %v / %v", errs[0], errs[2])
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "canceled") {
		t.Errorf("sink error not propagated: %v", errs[1])
	}
}
