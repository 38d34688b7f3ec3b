package planner_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datasource"
	"repro/internal/extract"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/planner"
	"repro/internal/sqllang"
	"repro/internal/workload"
)

// keyedWorld builds a middleware over a world and declares the watch
// class key that makes records mergeable across sources.
func keyedWorld(t *testing.T, world *workload.World, opts extract.Options) *core.Middleware {
	t.Helper()
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
	if err := mw.SetClassKey("watch", "thing.product.model"); err != nil {
		t.Fatal(err)
	}
	return mw
}

// TestPlannerSemiJoinDecision covers planner v3 detection: a class key
// blocks pushdown everywhere, but a group missing the constrained
// attribute — whose own instances therefore can never match — is marked
// semi-join-narrowable instead of plainly declined.
func TestPlannerSemiJoinDecision(t *testing.T) {
	world := workload.MustGenerate(workload.Spec{
		DBSources: 1, WebSources: 1, RecordsPerSource: 5, Seed: 33,
	})
	mw := keyedWorld(t, world, extract.Options{})
	res := rewriteFor(t, mw, "SELECT product WHERE water_resistance >= 100")

	// The db group maps water_resistance: its records can fail the
	// condition locally yet merge into a passing instance, so it stays a
	// plain class-key decline.
	d := decisionFor(t, res, "db_000", "thing.product.brand")
	if d.Action != planner.ActionDecline || !strings.Contains(d.Detail, "class key") {
		t.Errorf("db decision = %s (%s), want class-key decline", d.Action, d.Detail)
	}

	// The web group does not map water_resistance: semi-join.
	d = decisionFor(t, res, "web_000", "thing.product.brand")
	if d.Action != planner.ActionSemiJoin {
		t.Fatalf("web decision = %s (%s), want %s", d.Action, d.Detail, planner.ActionSemiJoin)
	}
	if !strings.Contains(d.Detail, "narrowable via thing.product.model") {
		t.Errorf("semijoin detail = %q, want the key attribute named", d.Detail)
	}
	if res.Stats.SemiJoinsPlanned != 1 {
		t.Errorf("SemiJoinsPlanned = %d, want 1", res.Stats.SemiJoinsPlanned)
	}

	var web *mapping.SourcePlan
	for i := range res.Plans {
		if res.Plans[i].Source.ID == "web_000" {
			web = &res.Plans[i]
		}
	}
	if web == nil || len(web.SemiJoins) != 1 {
		t.Fatalf("web_000 semi-joins = %+v, want exactly one", web)
	}
	sj := web.SemiJoins[0]
	if sj.KeyAttribute != "thing.product.model" {
		t.Errorf("KeyAttribute = %q", sj.KeyAttribute)
	}
	if sj.SQL {
		t.Error("web rules are not SQL; SQL narrowing must not be offered")
	}
	if len(sj.Entries) != 4 {
		t.Errorf("semi-join covers %d entries, want the 4 product attributes", len(sj.Entries))
	}
	if got := web.Entries[sj.KeyEntry].AttributeID; !strings.EqualFold(got, "thing.product.model") {
		t.Errorf("KeyEntry resolves to %q, want the model entry", got)
	}
	if len(sj.EligibleConds) != 1 || sj.EligibleConds[0] != 0 {
		t.Errorf("EligibleConds = %v, want [0] (the unmapped water_resistance condition)", sj.EligibleConds)
	}
}

// TestPlannerSemiJoinSQLNative checks that a database group whose rules
// are plain single-scan SELECTs over one row set gets native SQL
// narrowing: the extractor can append a typed IN on the key column.
func TestPlannerSemiJoinSQLNative(t *testing.T) {
	world := workload.MustGenerateSemiJoin(workload.SemiJoinSpec{
		DirectoryRecords: 4, DetailSources: 1, DetailRecords: 10, Seed: 5,
	})
	mw := keyedWorld(t, world, extract.Options{})
	res := rewriteFor(t, mw, "SELECT product WHERE water_resistance >= 100")

	d := decisionFor(t, res, "detail_000", "thing.product.model")
	if d.Action != planner.ActionSemiJoin {
		t.Fatalf("detail decision = %s (%s), want %s", d.Action, d.Detail, planner.ActionSemiJoin)
	}
	for _, sp := range res.Plans {
		if sp.Source.ID != "detail_000" {
			continue
		}
		if len(sp.SemiJoins) != 1 {
			t.Fatalf("detail_000 semi-joins = %d, want 1", len(sp.SemiJoins))
		}
		sj := sp.SemiJoins[0]
		if !sj.SQL || sj.KeyColumn != "model" {
			t.Errorf("SQL narrowing = %v on column %q, want native narrowing on model", sj.SQL, sj.KeyColumn)
		}
	}
	d = decisionFor(t, res, "dir", "thing.product.model")
	if d.Action != planner.ActionDecline {
		t.Errorf("directory decision = %s (%s), want decline (it maps the constrained attribute)", d.Action, d.Detail)
	}
}

// TestPlannerSemiJoinGates drives the narrowability gates: a group
// that does not map the declared key, or maps it ambiguously, stays a
// plain decline.
func TestPlannerSemiJoinGates(t *testing.T) {
	world := workload.MustGenerate(workload.Spec{DBSources: 1, RecordsPerSource: 4, Seed: 8})
	mw := keyedWorld(t, world, extract.Options{})

	// A source mapping brand and case but not the model key.
	if err := mw.RegisterSource(datasource.Definition{
		ID: "nokey", Kind: datasource.KindText, Path: "nokey.txt",
	}); err != nil {
		t.Fatal(err)
	}
	for attr, re := range map[string]string{
		"thing.product.brand":      `brand=([A-Za-z]+)`,
		"thing.product.watch.case": `case=([a-z-]+)`,
	} {
		if err := mw.RegisterMapping(mapping.Entry{
			AttributeID: attr, SourceID: "nokey",
			Rule: mapping.Rule{Language: mapping.LangRegex, Code: re},
		}); err != nil {
			t.Fatal(err)
		}
	}
	res := rewriteFor(t, mw, "SELECT product WHERE water_resistance >= 100")
	d := decisionFor(t, res, "nokey", "thing.product.brand")
	if d.Action != planner.ActionDecline || !strings.Contains(d.Detail, "does not map the key attribute") {
		t.Errorf("nokey decision = %s (%s), want key-missing decline", d.Action, d.Detail)
	}

	// A group of pure product attributes when the key is declared on the
	// watch subclass only: the key blocks pushdown (the classes are
	// comparable) but would never merge this group's product instances,
	// so narrowing by it is meaningless and the planner declines.
	if err := mw.RegisterSource(datasource.Definition{
		ID: "superclass", Kind: datasource.KindText, Path: "superclass.txt",
	}); err != nil {
		t.Fatal(err)
	}
	for attr, re := range map[string]string{
		"thing.product.brand": `brand=([A-Za-z]+)`,
		"thing.product.model": `model=\[([^\]]+)\]`,
	} {
		if err := mw.RegisterMapping(mapping.Entry{
			AttributeID: attr, SourceID: "superclass",
			Rule: mapping.Rule{Language: mapping.LangRegex, Code: re},
		}); err != nil {
			t.Fatal(err)
		}
	}
	res = rewriteFor(t, mw, "SELECT product WHERE water_resistance >= 100")
	d = decisionFor(t, res, "superclass", "thing.product.brand")
	if d.Action != planner.ActionDecline || !strings.Contains(d.Detail, "comparable class") {
		t.Errorf("superclass decision = %s (%s), want comparable-class decline", d.Action, d.Detail)
	}
}

// TestNarrowSQL unit-tests the IN-predicate rewriter, including the
// typed-literal emission and the conservative rejections.
func TestNarrowSQL(t *testing.T) {
	parseOK := func(t *testing.T, code string) {
		t.Helper()
		if _, err := sqllang.Parse(code); err != nil {
			t.Fatalf("narrowed SQL does not parse: %v\n%s", err, code)
		}
	}

	t.Run("plain select keeps order and appends IN", func(t *testing.T) {
		got, ok := planner.NarrowSQL("SELECT model FROM watches ORDER BY id", "model", []string{"Dive 1", "Dress 2"})
		if !ok {
			t.Fatal("narrowing rejected")
		}
		parseOK(t, got)
		for _, want := range []string{"IN ('Dive 1', 'Dress 2')", "ORDER BY id"} {
			if !strings.Contains(got, want) {
				t.Errorf("narrowed SQL %q missing %q", got, want)
			}
		}
	})

	t.Run("existing WHERE is preserved under AND", func(t *testing.T) {
		got, ok := planner.NarrowSQL("SELECT model FROM watches WHERE price > 5", "model", []string{"X"})
		if !ok {
			t.Fatal("narrowing rejected")
		}
		parseOK(t, got)
		if !strings.Contains(got, "price > 5") || !strings.Contains(got, "AND") || !strings.Contains(got, "IN ('X')") {
			t.Errorf("narrowed SQL = %q, want original predicate ANDed with the IN", got)
		}
	})

	t.Run("numeric values match both TEXT and numeric columns", func(t *testing.T) {
		got, ok := planner.NarrowSQL("SELECT model FROM watches", "model", []string{"10.5"})
		if !ok {
			t.Fatal("narrowing rejected")
		}
		parseOK(t, got)
		if !strings.Contains(got, "IN ('10.5', 10.5)") {
			t.Errorf("narrowed SQL = %q, want string and numeric literals for 10.5", got)
		}
	})

	t.Run("boolean values match both spellings", func(t *testing.T) {
		got, ok := planner.NarrowSQL("SELECT flag FROM watches", "flag", []string{"true"})
		if !ok {
			t.Fatal("narrowing rejected")
		}
		parseOK(t, got)
		if !strings.Contains(got, "'true'") || !strings.Contains(got, "TRUE") {
			t.Errorf("narrowed SQL = %q, want string and boolean literals", got)
		}
	})

	t.Run("qualified key column splits into table.column", func(t *testing.T) {
		got, ok := planner.NarrowSQL("SELECT watches.model FROM watches", "watches.model", []string{"X"})
		if !ok {
			t.Fatal("narrowing rejected")
		}
		parseOK(t, got)
		if !strings.Contains(got, "watches.model IN") {
			t.Errorf("narrowed SQL = %q, want a qualified operand", got)
		}
	})

	rejects := []struct {
		name, code string
		values     []string
	}{
		{"non-select code", "not sql at all", []string{"X"}},
		{"control characters", "SELECT model FROM watches", []string{"a\nb"}},
		{"exponent-form number would compare unequal", "SELECT model FROM watches", []string{"1e+06"}},
		{"negative number outside the safe spelling", "SELECT model FROM watches", []string{"-5"}},
		{"all values empty", "SELECT model FROM watches", []string{""}},
	}
	for _, tc := range rejects {
		t.Run("rejects "+tc.name, func(t *testing.T) {
			if got, ok := planner.NarrowSQL(tc.code, "model", tc.values); ok {
				t.Errorf("narrowing accepted: %q", got)
			}
		})
	}
}

// TestSemiJoinEquivalence extends the pushdown soundness fixture to
// planner v3: with a class key declared, every query must produce
// byte-identical output and identical error lists with semi-join
// narrowing enabled and disabled — materializing and streaming — across
// mixed source kinds, a pure-database semi-join world, and a capped
// seed that forces the fallback.
func TestSemiJoinEquivalence(t *testing.T) {
	worlds := []struct {
		name  string
		world *workload.World
		opts  extract.Options
	}{
		{"mixed kinds", workload.MustGenerate(workload.Spec{
			DBSources: 2, XMLSources: 1, WebSources: 2, TextSources: 1,
			RecordsPerSource: 12, Seed: 21,
		}), extract.Options{}},
		{"database semi-join world", workload.MustGenerateSemiJoin(workload.SemiJoinSpec{
			DirectoryRecords: 6, DetailSources: 3, DetailRecords: 40, Seed: 22,
		}), extract.Options{}},
		{"seed over the value cap", workload.MustGenerateSemiJoin(workload.SemiJoinSpec{
			DirectoryRecords: 8, DetailSources: 2, DetailRecords: 30, Seed: 23,
		}), extract.Options{SemiJoinMaxValues: 3}},
		{"web-only world narrows on an empty seed", workload.MustGenerate(workload.Spec{
			WebSources: 2, RecordsPerSource: 10, Seed: 24,
		}), extract.Options{}},
	}
	queries := []string{
		"SELECT product",
		"SELECT product WHERE water_resistance >= 100",
		"SELECT watch WHERE water_resistance >= 150",
		"SELECT product WHERE brand = 'Seiko' AND water_resistance >= 50",
		"SELECT product WHERE water_resistance >= 100 AND price > 100",
		"SELECT product WHERE model LIKE 'D%'",
	}
	ctx := context.Background()
	for _, w := range worlds {
		t.Run(w.name, func(t *testing.T) {
			narrowedOpts, plainOpts := w.opts, w.opts
			plainOpts.DisableSemiJoin = true
			narrowed := keyedWorld(t, w.world, narrowedOpts)
			plain := keyedWorld(t, w.world, plainOpts)
			for _, q := range queries {
				for _, format := range []instance.Format{instance.FormatText, instance.FormatJSON} {
					a, errA := queryString(ctx, narrowed, q, format)
					b, errB := queryString(ctx, plain, q, format)
					if (errA == nil) != (errB == nil) || (errA != nil && errA.Error() != errB.Error()) {
						t.Fatalf("%s: error divergence: semijoin=%v plain=%v", q, errA, errB)
					}
					if a != b {
						t.Errorf("%s (%v): output diverges with semi-join narrowing\n--- narrowed ---\n%s\n--- plain ---\n%s", q, format, a, b)
					}
				}
				ra, errA := narrowed.Query(ctx, q)
				rb, errB := plain.Query(ctx, q)
				if errA != nil || errB != nil {
					t.Fatalf("%s: %v / %v", q, errA, errB)
				}
				if got, want := fmt.Sprint(ra.Errors), fmt.Sprint(rb.Errors); got != want {
					t.Errorf("%s: source errors diverge: %s vs %s", q, got, want)
				}

				// The streaming path shares the wave split; it must stay
				// byte-identical to itself without narrowing and to the
				// materializing path.
				var sa, sb strings.Builder
				if _, _, err := narrowed.QueryToStream(ctx, &sa, q, instance.FormatJSON); err != nil {
					t.Fatalf("%s: streamed narrowed: %v", q, err)
				}
				if _, _, err := plain.QueryToStream(ctx, &sb, q, instance.FormatJSON); err != nil {
					t.Fatalf("%s: streamed plain: %v", q, err)
				}
				if sa.String() != sb.String() {
					t.Errorf("%s: streamed output diverges with semi-join narrowing", q)
				}
				mat, err := queryString(ctx, narrowed, q, instance.FormatJSON)
				if err != nil {
					t.Fatal(err)
				}
				if sa.String() != mat {
					t.Errorf("%s: streamed and materialized narrowed output diverge", q)
				}
			}
		})
	}
}
