package instance

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/extract"
)

// TestMalformedNumericValueErrors pins the numeric-comparison error
// path: every malformed extracted value under a numeric condition must
// surface as a SourceError naming both the attribute and the offending
// value, and the instance must be excluded from the match set.
func TestMalformedNumericValueErrors(t *testing.T) {
	malformed := []string{
		"not-a-price", "12.5.3", "12,50", "", "  ", "1e", "$45", "NaN(tag)",
	}
	for _, bad := range malformed {
		t.Run(fmt.Sprintf("value=%q", bad), func(t *testing.T) {
			w := newWorld(t)
			p := plan(t, w.ont, "SELECT product WHERE price < 100")
			rs := &extract.ResultSet{Fragments: []extract.Fragment{
				frag("thing.product.brand", "s", "Seiko"),
				frag("thing.product.price", "s", bad),
			}}
			res, err := w.gen.GenerateOpts(p, rs, GenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Matched) != 0 {
				t.Errorf("matched = %+v, want none", res.Matched)
			}
			if len(res.Errors) != 1 {
				t.Fatalf("errors = %+v, want exactly one", res.Errors)
			}
			msg := res.Errors[0].Err.Error()
			if !strings.Contains(msg, fmt.Sprintf("%q", bad)) {
				t.Errorf("error %q does not name the offending value %q", msg, bad)
			}
			if !strings.Contains(msg, "thing.product.price") {
				t.Errorf("error %q does not name the attribute", msg)
			}
			if !strings.Contains(msg, "is not numeric") {
				t.Errorf("error %q is not the numeric-conversion error", msg)
			}
		})
	}
}

// TestMalformedNumericConstraintErrors pins the other half of the
// numeric error path: a constraint literal that cannot parse as a
// number (a boolean literal against an integer attribute slips through
// plan-time type checking) must report the attribute and the literal.
func TestMalformedNumericConstraintErrors(t *testing.T) {
	w := newWorld(t)
	p := plan(t, w.ont, "SELECT watch WHERE water_resistance = TRUE")
	rs := &extract.ResultSet{Fragments: []extract.Fragment{
		frag("thing.product.brand", "s", "Seiko"),
		frag("thing.product.watch.water_resistance", "s", "100"),
	}}
	res, err := w.gen.GenerateOpts(p, rs, GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matched) != 0 {
		t.Errorf("matched = %+v, want none", res.Matched)
	}
	if len(res.Errors) != 1 {
		t.Fatalf("errors = %+v, want exactly one", res.Errors)
	}
	msg := res.Errors[0].Err.Error()
	if !strings.Contains(msg, `constraint "TRUE"`) {
		t.Errorf("error %q does not name the offending constraint literal", msg)
	}
	if !strings.Contains(msg, "thing.product.watch.water_resistance") {
		t.Errorf("error %q does not name the attribute", msg)
	}
}

// TestWellFormedNumericEdgeValues documents which unusual-but-valid
// numeric spellings compare without error (ParseFloat semantics):
// whitespace-padded, signed, exponent, and hex-float forms all parse.
func TestWellFormedNumericEdgeValues(t *testing.T) {
	cases := []struct {
		value string
		want  int // matched instances under price < 100
	}{
		{" 50 ", 1},   // surrounding whitespace is trimmed
		{"+50", 1},    // explicit sign
		{"5e1", 1},    // exponent notation
		{"0x32p0", 1}, // hex float, value 50
		{"150", 0},    // valid but fails the comparison
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("value=%q", c.value), func(t *testing.T) {
			w := newWorld(t)
			p := plan(t, w.ont, "SELECT product WHERE price < 100")
			rs := &extract.ResultSet{Fragments: []extract.Fragment{
				frag("thing.product.brand", "s", "Seiko"),
				frag("thing.product.price", "s", c.value),
			}}
			res, err := w.gen.GenerateOpts(p, rs, GenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Errors) != 0 {
				t.Fatalf("unexpected errors: %+v", res.Errors)
			}
			if len(res.Matched) != c.want {
				t.Errorf("matched = %d, want %d", len(res.Matched), c.want)
			}
		})
	}
}
