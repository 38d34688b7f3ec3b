package instance

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/extract"
	"repro/internal/rdf"
)

// fingerprint summarizes a result's matched instances independent of ID
// assignment: sorted class+values signatures.
func fingerprint(res *Result) string {
	var sigs []string
	for _, in := range res.Matched {
		var parts []string
		for _, a := range in.Attrs {
			parts = append(parts, a.ID+"="+strings.Join(a.Values, "|"))
		}
		sort.Strings(parts)
		sigs = append(sigs, in.Class.Path()+"{"+strings.Join(parts, ";")+"}")
	}
	sort.Strings(sigs)
	return strings.Join(sigs, "\n")
}

// genFragments builds a deterministic fragment set from fuzz bytes: up to
// three sources, two attributes each, positional records.
func genFragments(seed []uint8) []extract.Fragment {
	var frags []extract.Fragment
	for s := 0; s < 3; s++ {
		n := 0
		if s < len(seed) {
			n = int(seed[s]) % 6
		}
		if n == 0 {
			continue
		}
		brands := make([]string, n)
		models := make([]string, n)
		for i := 0; i < n; i++ {
			idx := 0
			if s+i+1 < len(seed) {
				idx = int(seed[s+i+1])
			}
			brands[i] = fmt.Sprintf("brand%d", idx%4)
			models[i] = fmt.Sprintf("model%d", idx%3)
		}
		src := fmt.Sprintf("src%d", s)
		frags = append(frags,
			extract.Fragment{AttributeID: "thing.product.brand", SourceID: src, Values: brands},
			extract.Fragment{AttributeID: "thing.product.model", SourceID: src, Values: models},
		)
	}
	return frags
}

// Property: fragment order never affects the generated result.
func TestGenerationPermutationInvariance(t *testing.T) {
	w := newWorld(t)
	p := plan(t, w.ont, "SELECT product")
	f := func(seed []uint8, swaps []uint8) bool {
		frags := genFragments(seed)
		if len(frags) == 0 {
			return true
		}
		base, err := w.gen.GenerateOpts(p, &extract.ResultSet{Fragments: frags}, GenOptions{})
		if err != nil {
			return false
		}
		// Permute.
		shuffled := append([]extract.Fragment{}, frags...)
		for i, s := range swaps {
			a := i % len(shuffled)
			b := int(s) % len(shuffled)
			shuffled[a], shuffled[b] = shuffled[b], shuffled[a]
		}
		again, err := w.gen.GenerateOpts(p, &extract.ResultSet{Fragments: shuffled}, GenOptions{})
		if err != nil {
			return false
		}
		return fingerprint(base) == fingerprint(again)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: adding a condition can only shrink the matched set, and every
// surviving instance satisfies it.
func TestConditionMonotonicity(t *testing.T) {
	w := newWorld(t)
	all := plan(t, w.ont, "SELECT product")
	filtered := plan(t, w.ont, "SELECT product WHERE brand = 'brand1'")
	f := func(seed []uint8) bool {
		frags := genFragments(seed)
		rsAll, err := w.gen.GenerateOpts(all, &extract.ResultSet{Fragments: frags}, GenOptions{})
		if err != nil {
			return false
		}
		rsF, err := w.gen.GenerateOpts(filtered, &extract.ResultSet{Fragments: frags}, GenOptions{})
		if err != nil {
			return false
		}
		if len(rsF.Matched) > len(rsAll.Matched) {
			return false
		}
		for _, in := range rsF.Matched {
			if in.Value("thing.product.brand") != "brand1" {
				return false
			}
		}
		// Count agreement with a direct tally over the raw fragments.
		want := 0
		for _, fr := range frags {
			if fr.AttributeID != "thing.product.brand" {
				continue
			}
			for _, v := range fr.Values {
				if v == "brand1" {
					want++
				}
			}
		}
		return len(rsF.Matched) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: generation is idempotent — running twice over the same inputs
// yields identical IDs, values, and links.
func TestGenerationIdempotence(t *testing.T) {
	w := newWorld(t)
	p := plan(t, w.ont, "SELECT product")
	f := func(seed []uint8) bool {
		frags := genFragments(seed)
		a, err := w.gen.GenerateOpts(p, &extract.ResultSet{Fragments: frags}, GenOptions{})
		if err != nil {
			return false
		}
		b, err := w.gen.GenerateOpts(p, &extract.ResultSet{Fragments: frags}, GenOptions{})
		if err != nil {
			return false
		}
		if len(a.Matched) != len(b.Matched) {
			return false
		}
		for i := range a.Matched {
			if a.Matched[i].ID != b.Matched[i].ID {
				return false
			}
		}
		return fingerprint(a) == fingerprint(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the RDF projection contains exactly one concrete class typing
// per instance plus owl typing, and every value appears as a literal.
func TestGraphProjectionCompleteness(t *testing.T) {
	w := newWorld(t)
	p := plan(t, w.ont, "SELECT product")
	f := func(seed []uint8) bool {
		frags := genFragments(seed)
		res, err := w.gen.GenerateOpts(p, &extract.ResultSet{Fragments: frags}, GenOptions{})
		if err != nil {
			return false
		}
		graph, err := w.gen.ToGraph(res)
		if err != nil {
			return false
		}
		valueCount := 0
		for _, in := range res.Instances() {
			for _, a := range in.Attrs {
				valueCount += len(a.Values)
			}
		}
		literalTriples := 0
		for _, tr := range graph.All() {
			if tr.Object.Kind() == rdf.KindLiteral {
				literalTriples++
			}
		}
		return literalTriples == valueCount
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
