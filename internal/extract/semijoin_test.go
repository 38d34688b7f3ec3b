package extract

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/datasource"
	"repro/internal/mapping"
	"repro/internal/obs"
	"repro/internal/s2sql"
	"repro/internal/workload"
)

// semiJoinManager builds a manager over a generated semi-join world
// (small keyed directory + large narrowable detail sources) with the
// watch class keyed on model.
func semiJoinManager(t *testing.T, spec workload.SemiJoinSpec, opts Options) (*Manager, *mapping.Repository, *workload.World) {
	t.Helper()
	world := workload.MustGenerateSemiJoin(spec)
	reg := datasource.NewRegistry()
	for _, def := range world.Definitions {
		must(t, reg.Register(def))
	}
	repo := mapping.NewRepository(world.Ontology, reg)
	for _, e := range world.Entries {
		must(t, repo.Register(e))
	}
	must(t, repo.SetClassKey("watch", "thing.product.model"))
	return NewManager(repo, FromCatalog(world.Catalog), opts), repo, world
}

func semiJoinPlan(t *testing.T, world *workload.World) *s2sql.Plan {
	t.Helper()
	plan, err := s2sql.ParseAndPlan("SELECT product WHERE water_resistance >= 100", world.Ontology)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestSemiJoinShrinksWork asserts the optimization optimizes: with the
// directory seeding a small key set, the narrowed run extracts far
// fewer values from the detail sources than the unnarrowed run.
func TestSemiJoinShrinksWork(t *testing.T) {
	spec := workload.SemiJoinSpec{DirectoryRecords: 5, DetailSources: 2, DetailRecords: 60, Seed: 41}
	count := func(disable bool) int {
		m, _, world := semiJoinManager(t, spec, Options{DisableSemiJoin: disable})
		rs, err := m.ExtractQuery(context.Background(), semiJoinPlan(t, world))
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Errors) > 0 {
			t.Fatalf("extraction errors: %v", rs.Errors)
		}
		return rs.Stats.ValuesExtracted
	}
	narrowed, plain := count(false), count(true)
	// Plain touches every detail row; narrowing should cut the detail
	// work down to roughly the directory's key set per source.
	if narrowed*2 >= plain {
		t.Errorf("narrowed run extracted %d values, plain %d — expected at least a 2x reduction", narrowed, plain)
	}
}

// TestSemiJoinNarrowedValuesStaySeedBound checks the runtime effect
// end-to-end: after a narrowed run, every model value a detail source
// contributed is one the directory seeded.
func TestSemiJoinNarrowedValuesStaySeedBound(t *testing.T) {
	m, _, world := semiJoinManager(t, workload.SemiJoinSpec{
		DirectoryRecords: 4, DetailSources: 1, DetailRecords: 30, Seed: 42,
	}, Options{})
	metrics := obs.NewRegistry()
	ctx := obs.ContextWithMetrics(context.Background(), metrics)
	rs, err := m.ExtractQuery(ctx, semiJoinPlan(t, world))
	if err != nil {
		t.Fatal(err)
	}
	dirModels := map[string]bool{}
	for _, r := range world.Records {
		if r.SourceID == "dir" {
			dirModels[r.Model] = true
		}
	}
	for _, f := range rs.Fragments {
		if f.SourceID != "detail_000" || !strings.EqualFold(f.AttributeID, "thing.product.model") {
			continue
		}
		if len(f.Values) == 0 {
			t.Fatal("narrowing dropped every detail row, including the directory overlap")
		}
		for _, v := range f.Values {
			if !dirModels[v] {
				t.Errorf("detail model %q survived narrowing but is not in the directory seed", v)
			}
		}
	}
	if got := metrics.Counter(obs.MetricPlannerSemiJoin, obs.Labels{"outcome": obs.OutcomeSemiJoinSQL}).Value(); got == 0 {
		t.Error("no applied_sql outcome recorded for a database semi-join world")
	}
}

// TestSemiJoinCacheCoherence guards the planner-rewrite and
// compiled-rule caches against narrowed runs: a narrowed plan's
// seed-dependent rules must neither leak into an unnarrowed run
// nor pick up the unnarrowed rules, in either order.
func TestSemiJoinCacheCoherence(t *testing.T) {
	spec := workload.SemiJoinSpec{DirectoryRecords: 4, DetailSources: 1, DetailRecords: 25, Seed: 43}
	m, _, world := semiJoinManager(t, spec, Options{})
	ctx := context.Background()
	attrs := []string{
		"thing.product.brand", "thing.product.model",
		"thing.product.watch.case", "thing.product.price",
		"thing.product.watch.water_resistance",
	}

	// Baseline from an untouched manager: the full, unnarrowed world.
	fresh, _, _ := semiJoinManager(t, spec, Options{})
	want, err := fresh.Extract(ctx, attrs)
	if err != nil {
		t.Fatal(err)
	}

	// Narrowed first: the narrowed detail rules must not replace the
	// unnarrowed ones in any cache.
	if _, err := m.ExtractQuery(ctx, semiJoinPlan(t, world)); err != nil {
		t.Fatal(err)
	}
	got, err := m.Extract(ctx, attrs)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Fragments) != fmt.Sprint(want.Fragments) {
		t.Fatal("unnarrowed extraction after a narrowed run diverges — the narrowed rules leaked into a cache")
	}

	// Unnarrowed first (caches warm): the narrowed run must still run its
	// narrowed rules, and a repeat narrowed run must agree.
	first, err := m.ExtractQuery(ctx, semiJoinPlan(t, world))
	if err != nil {
		t.Fatal(err)
	}
	second, err := m.ExtractQuery(ctx, semiJoinPlan(t, world))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(first.Fragments) != fmt.Sprint(second.Fragments) {
		t.Fatal("repeated narrowed extraction diverges — cache interference")
	}
	var full, narrowedVals int
	for _, f := range want.Fragments {
		if f.SourceID == "detail_000" && strings.EqualFold(f.AttributeID, "thing.product.model") {
			full = len(f.Values)
		}
	}
	for _, f := range first.Fragments {
		if f.SourceID == "detail_000" && strings.EqualFold(f.AttributeID, "thing.product.model") {
			narrowedVals = len(f.Values)
		}
	}
	if narrowedVals == 0 || narrowedVals >= full {
		t.Errorf("narrowed detail models = %d of %d — the narrowed run ran the unnarrowed rules", narrowedVals, full)
	}
}

// TestSemiJoinWaveSplitGates unit-tests splitWaves' conservative
// cases: cluster-restricted runs, the disable knob, and plans whose
// non-narrowed groups map a key attribute (mixed).
func TestSemiJoinWaveSplitGates(t *testing.T) {
	m, _, world := semiJoinManager(t, workload.SemiJoinSpec{
		DirectoryRecords: 3, DetailSources: 2, DetailRecords: 8, Seed: 45,
	}, Options{})
	plans, _, err := m.planSchema(context.Background(), nil, nil, semiJoinPlan(t, world).AttributeIDs(), semiJoinPlan(t, world))
	if err != nil {
		t.Fatal(err)
	}
	narrowable := 0
	for _, p := range plans {
		if p.Narrowable() {
			narrowable++
		}
	}
	if narrowable != 2 {
		t.Fatalf("narrowable plans = %d, want the 2 detail sources", narrowable)
	}

	w1, w2, keys := m.splitWaves(plans, false, nil)
	if len(w2) != 2 || len(w1) != len(plans)-2 {
		t.Errorf("wave split = %d/%d, want %d/2", len(w1), len(w2), len(plans)-2)
	}
	if !keys["thing.product.model"] {
		t.Errorf("seed attributes = %v, want the model key", keys)
	}

	// A cluster sub-request never narrows: the restricted source list
	// breaks seed completeness.
	w1, w2, _ = m.splitWaves(plans, true, nil)
	if len(w2) != 0 || len(w1) != len(plans) {
		t.Error("restricted run still split waves")
	}

	// A non-narrowed group mapping the key attribute forces wave one.
	mixed := make([]mapping.SourcePlan, len(plans))
	copy(mixed, plans)
	for i := range mixed {
		if !mixed[i].Narrowable() {
			continue
		}
		p := mixed[i]
		p.Entries = append(append([]mapping.Entry(nil), p.Entries...), mapping.Entry{
			AttributeID: "thing.product.model", SourceID: p.Source.ID,
			Rule: mapping.Rule{Language: mapping.LangRegex, Code: `m=(\w+)`},
		})
		mixed[i] = p
	}
	metrics := obs.NewRegistry()
	w1, w2, _ = m.splitWaves(mixed, false, metrics)
	if len(w2) != 0 || len(w1) != len(mixed) {
		t.Error("plan with an uncovered key-mapping entry was still narrowed")
	}
	if metrics.Counter(obs.MetricPlannerSemiJoin, obs.Labels{"outcome": obs.OutcomeSemiJoinMixed}).Value() == 0 {
		t.Error("mixed demotion not counted")
	}
}

// TestSemiJoinNarrowPlanFallbacks unit-tests narrowPlan's per-group
// degradations: empty seed, oversized seed, and unsafe SQL values.
func TestSemiJoinNarrowPlanFallbacks(t *testing.T) {
	m, _, world := semiJoinManager(t, workload.SemiJoinSpec{
		DirectoryRecords: 3, DetailSources: 1, DetailRecords: 8, Seed: 46,
	}, Options{})
	plans, _, err := m.planSchema(context.Background(), nil, nil, semiJoinPlan(t, world).AttributeIDs(), semiJoinPlan(t, world))
	if err != nil {
		t.Fatal(err)
	}
	var detail mapping.SourcePlan
	found := false
	for _, p := range plans {
		if p.Narrowable() {
			detail, found = p, true
		}
	}
	if !found {
		t.Fatal("no narrowable plan")
	}
	key := strings.ToLower(detail.SemiJoins[0].KeyAttribute)

	t.Run("empty seed drops every record", func(t *testing.T) {
		metrics := obs.NewRegistry()
		out := m.narrowPlan(detail, map[string]map[string]bool{}, metrics)
		if len(out.Filters) != len(detail.Filters)+1 {
			t.Fatalf("filters = %d, want one key filter added", len(out.Filters))
		}
		f := out.Filters[len(out.Filters)-1]
		if f.KeyIn == nil || len(f.KeyIn) != 0 {
			t.Errorf("empty seed filter KeyIn = %v, want an empty set", f.KeyIn)
		}
		if metrics.Counter(obs.MetricPlannerSemiJoin, obs.Labels{"outcome": obs.OutcomeSemiJoinEmpty}).Value() != 1 {
			t.Error("seed_empty not counted")
		}
	})

	t.Run("oversized seed runs unnarrowed", func(t *testing.T) {
		seed := map[string]map[string]bool{key: {}}
		for i := 0; i < DefaultSemiJoinMaxValues+1; i++ {
			seed[key][fmt.Sprintf("M%d", i)] = true
		}
		metrics := obs.NewRegistry()
		out := m.narrowPlan(detail, seed, metrics)
		if len(out.Filters) != len(detail.Filters) {
			t.Error("capped narrowing still added a filter")
		}
		for i := range out.Entries {
			if out.Entries[i].Rule.Code != detail.Entries[i].Rule.Code {
				t.Error("capped narrowing still rewrote SQL")
			}
		}
		if metrics.Counter(obs.MetricPlannerSemiJoin, obs.Labels{"outcome": obs.OutcomeSemiJoinCapped}).Value() != 1 {
			t.Error("capped not counted")
		}
	})

	t.Run("unsafe SQL value falls back to the record filter", func(t *testing.T) {
		seed := map[string]map[string]bool{key: {"Dir 100": true, "1e+06": true}}
		metrics := obs.NewRegistry()
		out := m.narrowPlan(detail, seed, metrics)
		for i := range out.Entries {
			if out.Entries[i].Rule.Code != detail.Entries[i].Rule.Code {
				t.Error("unsafe value still rewrote SQL")
			}
		}
		if len(out.Filters) != len(detail.Filters)+1 {
			t.Fatal("no record-filter fallback")
		}
		f := out.Filters[len(out.Filters)-1]
		if !f.KeyIn["Dir 100"] || !f.KeyIn["1e+06"] {
			t.Errorf("fallback KeyIn = %v, want both seed values", f.KeyIn)
		}
		if metrics.Counter(obs.MetricPlannerSemiJoin, obs.Labels{"outcome": obs.OutcomeSemiJoinFilter}).Value() != 1 {
			t.Error("applied_filter not counted")
		}
	})

	t.Run("clean seed narrows natively", func(t *testing.T) {
		seed := map[string]map[string]bool{key: {"Dir 100": true, "Dir 101": true}}
		metrics := obs.NewRegistry()
		out := m.narrowPlan(detail, seed, metrics)
		rewritten := 0
		for i, ei := range detail.SemiJoins[0].Entries {
			_ = i
			e := out.Entries[ei]
			if !strings.Contains(e.Rule.Code, "IN ('Dir 100', 'Dir 101')") {
				t.Errorf("entry %s not narrowed: %q", e.AttributeID, e.Rule.Code)
				continue
			}
			if e.Rule.Fallback != detail.Entries[ei].Rule.Code {
				t.Errorf("entry %s fallback = %q, want the original rule", e.AttributeID, e.Rule.Fallback)
			}
			rewritten++
		}
		if rewritten == 0 {
			t.Fatal("no entries rewritten")
		}
		// The shared plans slice must stay untouched.
		for i := range detail.Entries {
			if strings.Contains(detail.Entries[i].Rule.Code, "IN (") {
				t.Fatal("narrowPlan mutated the input plan")
			}
		}
		if metrics.Counter(obs.MetricPlannerSemiJoin, obs.Labels{"outcome": obs.OutcomeSemiJoinSQL}).Value() != 1 {
			t.Error("applied_sql not counted")
		}
	})
}
