package integration

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/faultinject"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/workload"
)

// The chaos suite (run by `make chaos`) drives full queries through the
// seeded fault-injection harness and asserts the recovery invariants:
// no total query failure while an alternate source covers each
// attribute, end-to-end latency bounded by the deadline budget, and
// retry/breaker/outcome counters matching the injected plan exactly.
// Everything derives from fixed seeds, so failures reproduce.

const chaosSeed = 1337

// chaosWorld generates a world and wires its backends through an
// injector running the given plan. Plan targets are backend addresses;
// use chaosKey to resolve a source ID to its target.
func chaosWorld(t *testing.T, spec workload.Spec, plan faultinject.Plan, opts extract.Options) (*core.Middleware, *workload.World, *faultinject.Injector) {
	t.Helper()
	world := workload.MustGenerate(spec)
	inj := faultinject.New(chaosSeed, plan)
	mw, err := core.New(core.Config{
		Ontology: world.Ontology,
		Backends: inj.WrapBackends(extract.FromCatalog(world.Catalog)),
		Extract:  opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := world.Apply(mw); err != nil {
		t.Fatal(err)
	}
	return mw, world, inj
}

// chaosKey returns the fault-injection target for a generated source.
func chaosKey(t *testing.T, world *workload.World, sourceID string) string {
	t.Helper()
	for _, def := range world.Definitions {
		if def.ID == sourceID {
			return faultinject.Key(def)
		}
	}
	t.Fatalf("no definition for source %s", sourceID)
	return ""
}

// stopwatch returns a function reporting the real time elapsed since
// the call. The budget assertions bound *actual* waiting — that hung
// sources cannot pin a query past its deadline — so they must read the
// wall clock; the determinism rule governs fault generation, which
// stays fully seeded.
func stopwatch() func() time.Duration {
	//lint:ignore determinism real-elapsed-time guard: asserts the query budget bounds wall-clock latency, which only the wall clock can witness
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}

func counter(mw *core.Middleware, name string, labels obs.Labels) uint64 {
	return mw.Metrics().Counter(name, labels).Value()
}

// TestChaosReplicaFailoverKeepsAnswering kills one of two sources that
// map the product attributes and verifies the invariant: the query
// still answers from the healthy source, and the dead source's error is
// marked failover because every attribute it served was still covered.
func TestChaosReplicaFailoverKeepsAnswering(t *testing.T) {
	spec := workload.Spec{XMLSources: 1, WebSources: 1, RecordsPerSource: 8, Seed: 71}
	probe := workload.MustGenerate(spec) // throwaway copy just to resolve the target key
	target := chaosKey(t, probe, "web_000")

	mw, world, _ := chaosWorld(t, spec,
		faultinject.Plan{target: {Permanent: true}},
		extract.Options{Retries: 2, RetryBackoff: -1})

	res, err := mw.Query(context.Background(), "SELECT product")
	if err != nil {
		t.Fatalf("query must not fail totally with a healthy replica: %v", err)
	}
	healthy := world.CountMatching(func(r workload.Record) bool {
		return strings.HasPrefix(r.SourceID, "xml_")
	})
	if len(res.Matched) != healthy {
		t.Errorf("matched = %d, want %d from the healthy source", len(res.Matched), healthy)
	}
	if len(res.Errors) == 0 {
		t.Fatal("killed source reported no errors")
	}
	for _, e := range res.Errors {
		if e.SourceID != "web_000" {
			t.Errorf("error attributed to %s, want web_000", e.SourceID)
		}
		if !e.Failover {
			t.Errorf("killed source's attributes were all covered; error not marked failover: %v", e)
		}
		if !extract.IsPermanent(e.Err) {
			t.Errorf("injected permanent fault lost its classification: %v", e.Err)
		}
	}
	// One failover per failed rule: every error was covered elsewhere.
	if got := counter(mw, obs.MetricSourceExtractTotal, obs.Labels{"source": "web_000", "outcome": obs.OutcomeFailover}); got != uint64(len(res.Errors)) {
		t.Errorf("failover counter = %v, want %d (one per failed rule)", got, len(res.Errors))
	}
	// Permanent failures must fail fast: zero retries despite Retries: 2.
	if got := counter(mw, obs.MetricSourceRetries, obs.Labels{"source": "web_000"}); got != 0 {
		t.Errorf("permanent fault consumed %v retries, want 0", got)
	}
}

// TestChaosBudgetBoundsLatencyUnderHangs hangs every web source and
// checks the query-wide deadline budget bounds end-to-end latency: the
// healthy source still answers and the hung sources surface as errors
// well before their own 10s default timeout.
func TestChaosBudgetBoundsLatencyUnderHangs(t *testing.T) {
	spec := workload.Spec{XMLSources: 1, WebSources: 2, RecordsPerSource: 5, Seed: 72}
	probe := workload.MustGenerate(spec)
	plan := faultinject.Plan{
		chaosKey(t, probe, "web_000"): {Hang: true},
		chaosKey(t, probe, "web_001"): {Hang: true},
	}
	mw, world, _ := chaosWorld(t, spec, plan, extract.Options{
		QueryBudget:  300 * time.Millisecond,
		RetryBackoff: -1,
	})

	stop := stopwatch()
	res, err := mw.Query(context.Background(), "SELECT product")
	elapsed := stop()
	if err != nil {
		t.Fatalf("query must degrade, not fail: %v", err)
	}
	// Generous bound for race-detector and scheduler noise; without the
	// budget the hung fetches would pin the query for the full 10s
	// per-source timeout.
	if elapsed > 2*time.Second {
		t.Errorf("query took %v, budget was 300ms", elapsed)
	}
	healthy := world.CountMatching(func(r workload.Record) bool {
		return strings.HasPrefix(r.SourceID, "xml_")
	})
	if len(res.Matched) != healthy {
		t.Errorf("matched = %d, want %d from the healthy source", len(res.Matched), healthy)
	}
	if len(res.Errors) == 0 {
		t.Error("hung sources produced no errors")
	}
	for _, e := range res.Errors {
		if !strings.HasPrefix(e.SourceID, "web_") {
			t.Errorf("error attributed to healthy source: %v", e)
		}
	}
}

// TestChaosCountersMatchInjectedPlan injects an exact failure count and
// checks the recovery counters line up with it: FailFirst: 2 under a
// budget of 3 retries must produce exactly 2 retries, one ok outcome,
// no exhaustion, and no data loss — twice, identically, from the same
// seed.
func TestChaosCountersMatchInjectedPlan(t *testing.T) {
	spec := workload.Spec{XMLSources: 1, RecordsPerSource: 6, Seed: 73}

	run := func() (matched int, retries, ok, exhausted uint64, calls int) {
		probe := workload.MustGenerate(spec)
		target := chaosKey(t, probe, "xml_000")
		mw, _, inj := chaosWorld(t, spec,
			faultinject.Plan{target: {FailFirst: 2}},
			extract.Options{Retries: 3, RetryBackoff: -1})
		res, err := mw.Query(context.Background(), "SELECT product")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Errors) > 0 {
			t.Fatalf("retries should have absorbed the plan's 2 failures: %v", res.Errors)
		}
		return len(res.Matched),
			counter(mw, obs.MetricSourceRetries, obs.Labels{"source": "xml_000"}),
			counter(mw, obs.MetricSourceExtractTotal, obs.Labels{"source": "xml_000", "outcome": obs.OutcomeOK}),
			counter(mw, obs.MetricSourceExtractTotal, obs.Labels{"source": "xml_000", "outcome": obs.OutcomeRetryExhausted}),
			inj.Calls(target)
	}

	matched, retries, ok, exhausted, calls := run()
	if matched != 6 {
		t.Errorf("matched = %d, want 6 (no data loss)", matched)
	}
	// The plan failed exactly 2 calls; every failure costs exactly one
	// retry under a sufficient budget.
	if retries != 2 {
		t.Errorf("retries = %v, want exactly the 2 injected failures", retries)
	}
	if ok != 1 {
		t.Errorf("ok outcome = %v, want 1", ok)
	}
	if exhausted != 0 {
		t.Errorf("retry_exhausted = %v, want 0", exhausted)
	}

	matched2, retries2, ok2, exhausted2, calls2 := run()
	if matched2 != matched || retries2 != retries || ok2 != ok || exhausted2 != exhausted || calls2 != calls {
		t.Errorf("chaos run not reproducible from seed: (%d,%v,%v,%v,%d) vs (%d,%v,%v,%v,%d)",
			matched, retries, ok, exhausted, calls, matched2, retries2, ok2, exhausted2, calls2)
	}
}

// TestChaosHarmlessFaultReadsEachDocumentOnce wraps every XML, text and
// web source in an active fault that changes nothing but timing. The
// answer must be byte-identical to the unwrapped world's in every
// format, and each query must read each document exactly once however
// many rules select from it: one injected operation is one document
// read, not one rule. Concurrent queries share nothing: eight at once
// cost every document exactly eight reads.
func TestChaosHarmlessFaultReadsEachDocumentOnce(t *testing.T) {
	spec := workload.Spec{XMLSources: 2, TextSources: 2, WebSources: 2, RecordsPerSource: 6, Seed: 75}
	probe := workload.MustGenerate(spec)
	plan := faultinject.Plan{}
	var targets []string
	for _, def := range probe.Definitions {
		key := faultinject.Key(def)
		plan[key] = faultinject.Fault{AddLatency: time.Microsecond}
		targets = append(targets, key)
	}
	wrapped, _, inj := chaosWorld(t, spec, plan, extract.Options{})
	plain, _ := build(t, spec, extract.Options{})

	ctx := context.Background()
	formats := []instance.Format{
		instance.FormatOWL, instance.FormatTurtle, instance.FormatNTriples,
		instance.FormatXML, instance.FormatJSON, instance.FormatText,
	}
	for i, f := range formats {
		var want, got strings.Builder
		ref, err := plain.QueryTo(ctx, &want, "SELECT product", f)
		if err != nil {
			t.Fatal(err)
		}
		if len(ref.Matched) != 6*spec.RecordsPerSource {
			t.Fatalf("reference matched %d products, want %d", len(ref.Matched), 6*spec.RecordsPerSource)
		}
		if _, err := wrapped.QueryTo(ctx, &got, "SELECT product", f); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: wrapped answer differs from the unwrapped world's", f)
		}
		for _, target := range targets {
			if calls := inj.Calls(target); calls != i+1 {
				t.Errorf("%s after %d queries: %d reads, want one per query", target, i+1, calls)
			}
		}
	}

	const concurrent = 8
	before := make(map[string]int, len(targets))
	for _, target := range targets {
		before[target] = inj.Calls(target)
	}
	var wg sync.WaitGroup
	for q := 0; q < concurrent; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := wrapped.Query(ctx, "SELECT product"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for _, target := range targets {
		if got := inj.Calls(target) - before[target]; got != concurrent {
			t.Errorf("%s: %d reads for %d concurrent queries, want one per query", target, got, concurrent)
		}
	}
}

// chaosSemiJoinWorld wires a semi-join world (small keyed directory,
// large narrowable detail sources) through a seeded injector, with the
// watch class keyed on model so narrowing can fire.
func chaosSemiJoinWorld(t *testing.T, spec workload.SemiJoinSpec, plan faultinject.Plan, opts extract.Options) *core.Middleware {
	t.Helper()
	world := workload.MustGenerateSemiJoin(spec)
	inj := faultinject.New(chaosSeed, plan)
	mw, err := core.New(core.Config{
		Ontology: world.Ontology,
		Backends: inj.WrapBackends(extract.FromCatalog(world.Catalog)),
		Extract:  opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := world.Apply(mw); err != nil {
		t.Fatal(err)
	}
	if err := mw.SetClassKey("watch", "thing.product.model"); err != nil {
		t.Fatal(err)
	}
	return mw
}

// TestChaosSemiJoinFallbackMatchesPlain kills semi-join participants —
// first the directory that feeds the seed, then a narrowed detail
// source — and asserts the invariant that makes narrowing safe to ship:
// under every fault plan, the narrowed pipeline's answer is
// byte-identical to the unnarrowed pipeline's, errors included. A dead
// seed source must degrade the optimization, never the answer.
func TestChaosSemiJoinFallbackMatchesPlain(t *testing.T) {
	spec := workload.SemiJoinSpec{DirectoryRecords: 4, DetailSources: 2, DetailRecords: 25, Seed: 75}
	const query = "SELECT product WHERE water_resistance >= 100"

	cases := []struct {
		name string
		plan faultinject.Plan
	}{
		{"healthy", nil},
		// The directory is the only wave-one source: killing it empties
		// the seed and its errors must surface identically in both runs.
		{"dead seed source", faultinject.Plan{"directory": {Permanent: true}}},
		// A dead narrowed source fails in wave two; the plain run fails
		// the same rules in its single wave.
		{"dead narrowed source", faultinject.Plan{"detail-000": {Permanent: true}}},
		// Transient failures exercise the retry path on narrowed rules.
		{"flapping narrowed source", faultinject.Plan{"detail-001": {FailFirst: 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Sequential extraction keeps the injector's per-call counters
			// (embedded in its error strings) identical across both runs;
			// concurrency would assign them by goroutine scheduling.
			opts := extract.Options{Retries: 2, RetryBackoff: -1, Parallelism: 1}
			narrowedMW := chaosSemiJoinWorld(t, spec, tc.plan, opts)
			plainOpts := opts
			plainOpts.DisableSemiJoin = true
			plainMW := chaosSemiJoinWorld(t, spec, tc.plan, plainOpts)

			ctx := context.Background()
			var narrowed, plain strings.Builder
			_, nerr := narrowedMW.QueryTo(ctx, &narrowed, query, instance.FormatJSON)
			_, perr := plainMW.QueryTo(ctx, &plain, query, instance.FormatJSON)
			if (nerr == nil) != (perr == nil) || (nerr != nil && nerr.Error() != perr.Error()) {
				t.Fatalf("error divergence: narrowed=%v plain=%v", nerr, perr)
			}
			if narrowed.String() != plain.String() {
				t.Errorf("narrowed output diverges from plain under %q:\nnarrowed: %s\nplain:    %s", tc.name, narrowed.String(), plain.String())
			}

			nres, err := narrowedMW.Query(ctx, query)
			if err != nil {
				t.Fatal(err)
			}
			pres, err := plainMW.Query(ctx, query)
			if err != nil {
				t.Fatal(err)
			}
			if len(nres.Errors) != len(pres.Errors) {
				t.Fatalf("error counts diverge: narrowed=%v plain=%v", nres.Errors, pres.Errors)
			}
			if len(nres.Matched) != len(pres.Matched) {
				t.Errorf("matched diverge: narrowed=%d plain=%d", len(nres.Matched), len(pres.Matched))
			}
		})
	}
}
