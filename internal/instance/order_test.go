package instance

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"

	"repro/internal/extract"
	"repro/internal/ontology"
	"repro/internal/rdf"
	"repro/internal/workload"
)

// mapOrderKey is the ordering key as it was built over a map of
// attribute values: the keys sorted, one strings.Join per attribute.
func mapOrderKey(in *Instance) string {
	values := valueMap(in)
	ids := make([]string, 0, len(values))
	for id := range values {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	for _, id := range ids {
		b.WriteString(id)
		b.WriteByte('=')
		b.WriteString(strings.Join(values[id], "|"))
		b.WriteByte(';')
	}
	return in.Class.Path() + "\x00" + b.String() + "\x00" + strings.Join(in.Sources, ",")
}

// TestOrderKeyMatchesMapFormula holds orderKey, which walks Attrs in
// order, to the map formula: on values carrying every
// separator the key uses, on empty and missing values, on more
// attributes than fit a small stack array, and on generated instances
// with a repeated attribute and with values merged from several
// sources.
func TestOrderKeyMatchesMapFormula(t *testing.T) {
	w := newWorld(t)
	watch, _ := w.ont.Class("watch")
	many := map[string][]string{}
	for i := 0; i < 20; i++ {
		many[fmt.Sprintf("thing.product.a%02d", i)] = []string{fmt.Sprint(i), "|;=,\x00"}
	}
	for name, c := range map[string]struct {
		values  map[string][]string
		sources []string
	}{
		"separators": {map[string][]string{
			"thing.product.brand": {"a|b", "c;d", "e=f", "g,h", "i\x00j"},
			"thing.product.model": {"|", ";", "=", ",", "\x00"},
		}, []string{"s,1", "s\x002", "s|3"}},
		"empty values": {map[string][]string{
			"thing.product.brand": {"", ""},
			"thing.product.model": {},
			"thing.product.price": nil,
			"thing.product.watch": {""},
		}, nil},
		"no attributes":   {map[string][]string{}, []string{"s"}},
		"nil attributes":  {nil, []string{"a", "b"}},
		"more than 16":    {many, []string{"a", "b"}},
		"IDs as prefixes": {map[string][]string{"a": {"1"}, "a.b": {"2"}, "a=": {"3"}, "a;": {"4"}}, nil},
	} {
		in := &Instance{Class: watch, Attrs: attrsOf(c.values), Sources: c.sources}
		if got, want := string(in.orderKey(nil)), mapOrderKey(in); got != want {
			t.Errorf("%s: orderKey = %q, map formula = %q", name, got, want)
		}
	}

	if err := w.repo.SetClassKey("product", "thing.product.model"); err != nil {
		t.Fatal(err)
	}
	rs := &extract.ResultSet{Fragments: []extract.Fragment{
		frag("thing.product.model", "s1", "M1", "M2", "M|3"),
		frag("thing.product.brand", "s1", "B;1", "B=2"),
		frag("thing.product.brand", "s1", "B,1b"),
		frag("thing.product.model", "s2", "M1", "M|3"),
		frag("thing.product.price", "s2", "1", ""),
		frag("thing.product.watch.case", "s3", "\x00steel", "M2"),
	}}
	res, err := w.gen.GenerateOpts(plan(t, w.ont, "SELECT product"), rs, GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	merged, repeated := 0, 0
	for _, in := range res.Instances() {
		if len(in.Sources) > 1 {
			merged++
		}
		if len(in.values("thing.product.brand")) == 2 {
			repeated++
		}
		if got, want := string(in.orderKey(nil)), mapOrderKey(in); got != want {
			t.Errorf("%s: orderKey = %q, map formula = %q", in.ID, got, want)
		}
	}
	if merged == 0 || repeated == 0 {
		t.Fatalf("fixture: %d merged and %d repeated-attribute instances, want some of each", merged, repeated)
	}
}

// TestGenerateAllocsPerInstance gates generation's allocation rate on a
// 2,000-instance answer that is not merge-free, so the ordering sort
// runs: at most 4 allocations per generated instance. Attribute lists
// come from one slab per lineage group, link sets are shared, and the
// ordering key is one allocation.
func TestGenerateAllocsPerInstance(t *testing.T) {
	world := workload.MustGenerate(workload.Spec{DBSources: 1, XMLSources: 1, RecordsPerSource: 1000, Seed: 4})
	gen, p, rs := extracted(t, world, false, "SELECT product")
	res, err := gen.GenerateOpts(p, rs, GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := len(res.Matched) + len(res.Related)
	if len(res.Matched) < 2000 {
		t.Fatalf("fixture: %d matched instances, want at least 2,000", len(res.Matched))
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := gen.GenerateOpts(p, rs, GenOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / float64(n); per > 4 {
		t.Errorf("GenerateOpts: %.0f allocations for %d instances = %.2f per instance, want at most 4", allocs, n, per)
	} else {
		t.Logf("GenerateOpts: %.2f allocations per instance", per)
	}
}

// TestSerializeTextAllocs gates the text writer on E7's 2,000-instance
// answer: at most 16 allocations per document, so every piece is
// appended in place rather than formatted line by line.
func TestSerializeTextAllocs(t *testing.T) {
	world := workload.MustGenerate(workload.Spec{DBSources: 1, XMLSources: 1, RecordsPerSource: 1000, Seed: 4})
	gen, res := generatedResult(t, world, false, "SELECT product")
	if len(res.Matched) < 2000 {
		t.Fatalf("fixture: %d matched instances, want at least 2,000", len(res.Matched))
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := gen.Serialize(io.Discard, res, FormatText); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Errorf("Serialize text: %.0f allocations per document, want at most 16", allocs)
	} else {
		t.Logf("Serialize text: %.0f allocations per document", allocs)
	}
}

// TestInheritedRelationNameLastNonEmptyWins: a relation name declared
// on a class and again on its ancestor is one Links entry, holding the
// targets of the ancestor's relation when it has any, else the class's
// own.
func TestInheritedRelationNameLastNonEmptyWins(t *testing.T) {
	ont := ontology.MustNew("http://example.org/parts#", "parts", "thing")
	for _, c := range [][2]string{{"part", "thing"}, {"gear", "part"}, {"maker", "thing"}, {"tool", "thing"}} {
		if _, err := ont.AddClass(c[0], c[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range [][2]string{{"gear", "teeth"}, {"maker", "name"}, {"tool", "tag"}} {
		if _, err := ont.AddAttribute(a[0], a[1], rdf.XSDString); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range [][3]string{{"gear", "link", "tool"}, {"part", "link", "maker"}, {"gear", "zeta", "tool"}} {
		if _, err := ont.AddRelation(r[0], r[1], r[2]); err != nil {
			t.Fatal(err)
		}
	}
	gen := NewGenerator(ont, nil)
	for _, c := range []struct {
		name  string
		frags []extract.Fragment
		want  string // target class of the "link" entry
	}{
		{"ancestor has targets", []extract.Fragment{
			frag("thing.part.gear.teeth", "s", "12"),
			frag("thing.maker.name", "s", "Acme"),
			frag("thing.tool.tag", "s", "T1"),
		}, "maker"},
		{"ancestor has none", []extract.Fragment{
			frag("thing.part.gear.teeth", "s", "12"),
			frag("thing.tool.tag", "s", "T1"),
		}, "tool"},
	} {
		res, err := gen.GenerateOpts(plan(t, ont, "SELECT gear"), &extract.ResultSet{Fragments: c.frags}, GenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matched) != 1 {
			t.Fatalf("%s: matched %d, want 1", c.name, len(res.Matched))
		}
		links := res.Matched[0].Links
		if len(links) != 2 || links[0].Name != "link" || links[1].Name != "zeta" {
			t.Fatalf("%s: links = %+v, want link then zeta", c.name, links)
		}
		if ts := links[0].Targets; len(ts) != 1 || ts[0].Class.Name != c.want {
			t.Errorf("%s: link targets = %+v, want one %s", c.name, ts, c.want)
		}
	}
}
