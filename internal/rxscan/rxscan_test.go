package rxscan_test

import (
	"reflect"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/mapping"
	"repro/internal/rxscan"
	"repro/internal/workload"
)

// paperPattern is the pattern of the paper's Str_Search rule (§2.3.1):
// "<p><b>" + `[0-9a-zA-Z']+`, the form with no capture group.
const paperPattern = `<p><b>[0-9a-zA-Z']+`

// examplePatterns are the regex and Str_Search patterns of the programs
// under examples/.
var examplePatterns = []string{
	// b2b-supplychain
	`brand ([A-Za-z]+) \|`, `model ([A-Za-z0-9]+) \|`, `case ([a-z-]+) \|`, `eur ([0-9.]+)`,
	`supplier: ([A-Za-z]+)`,
	`<b>([^<]+)</b>`, `<i>([^<]+)</i>`, `<em>([^<]+)</em>`, `<u>([^<]+)</u>`,
	// federated-inventory
	`brand=([A-Za-z]+)`, `case=([a-z-]+)`, `price=([0-9.]+)`,
	// web-catalog
	`<p><b>([0-9a-zA-Z']+)`, `case: ([a-z-]+)`, `price: ([0-9.]+)`,
	`<td class="b">([^<]+)</td>`, `<td class="m">([^<]+)</td>`,
	`<td class="c">([^<]+)</td>`, `<td class="p">([^<]+)</td>`,
	// quickstart
	paperPattern,
}

// strSearchPattern finds the quoted pattern of a WebL Str_Search call.
var strSearchPattern = regexp.MustCompile(`Str_Search\([^,]*, ("(?:[^"\\]|\\.)*")\)`)

// workloadPatterns returns the pattern of every text and web rule the
// workload generator writes.
func workloadPatterns(t testing.TB) []string {
	world := workload.MustGenerate(workload.Spec{WebSources: 1, TextSources: 1, RecordsPerSource: 1, Seed: 1})
	var out []string
	for _, e := range world.Entries {
		switch e.Rule.Language {
		case mapping.LangRegex:
			out = append(out, e.Rule.Code)
		case mapping.LangWebL:
			m := strSearchPattern.FindStringSubmatch(e.Rule.Code)
			if m == nil {
				t.Fatalf("no Str_Search pattern in WebL rule %q", e.Rule.Code)
			}
			p, err := strconv.Unquote(m[1])
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, p)
		}
	}
	if len(out) < 10 {
		t.Fatalf("found %d workload patterns, want one per text and web rule", len(out))
	}
	return out
}

// TestScanShape pins which patterns take the literal scan. Every pattern
// the workloads, examples and paper run must: a silent fallback to
// regexp would still pass the fuzz oracle but lose the scan's speed.
func TestScanShape(t *testing.T) {
	scan := append(append(workloadPatterns(t), examplePatterns...),
		`W-[0-9]+`, `<b>[0-9a-zA-Z' ]+</b>`, `aa([ab]+)`, `id=(\w+);`, `k=([^\]]+)\]`,
		`x=([\x{80}-\x{10FFFF}a]+)b`, `x([^a]+)a`)
	for _, p := range scan {
		if !mustCompile(t, p).Scans() {
			t.Errorf("%q falls back to regexp, want the literal scan", p)
		}
	}
	for _, p := range []string{
		`(?i)brand=([a-z]+)`,      // case folding
		`brand=([A-Za-z]+) (\w+)`, // two groups
		`x([^b]+)a`,               // the suffix's first byte is in the class
		`x([^é]+)y`,               // some but not all non-ASCII runes
		`x([\pL]+)y`,              // a Unicode class
		`é=([0-9]+)`,              // a non-ASCII literal
		`x=([0-9]+?)`,             // non-greedy
		`[0-9]+\.[0-9]+`,          // no leading literal
		`^x=([0-9]+)`,             // an anchor
		`x=([0-9]*)`,              // a run that may be empty
		`x=([0-9]+)y(z)`,          // more than three parts
		`x=([0-9]+)(?i)k`,         // a case-folded suffix
		`x=([0-9])`,               // no repetition
		`x=((?:ab)+)`,             // a repeated sequence, not a class
		`x=([0-9]+)|y=([0-9]+)`,   // an alternation
		`x=([0-9]+)\b`,            // an assertion
		`x=([0-9a-zA-Z]+)z`,       // the same, with a positive class
		`x=([^<]+)é`,              // a non-ASCII suffix
		`x=(\x{80}+)`,             // a non-ASCII literal run
		`x=([\x00-\x{D7FF}]+)`,    // a class ending below MaxRune
		`x=(.+)`,                  // any character, not a class
	} {
		if mustCompile(t, p).Scans() {
			t.Errorf("%q takes the literal scan, want the regexp fallback", p)
		}
	}
}

// TestEachMatchesRegexp runs fixed cases through the oracle: overlapping
// prefixes, a prefix with no suffix after its run, empty runs and
// invalid UTF-8.
func TestEachMatchesRegexp(t *testing.T) {
	for _, c := range []struct{ pattern, text string }{
		{`aa([ab]+)`, "aaab"},
		{`aa(b+)`, "aaab aab aa"},
		{`ab(c+)d`, "abccc abcd abd ab"},
		{`x=([^<]+)<`, "x=\xff\xfe<x=<x=é<"},
		{`x=([0-9]+)`, "x=\xffx=1\x80x=22"},
		{`a([a]+)b`, "aaaaaaaaab aaaa"},
		{`<b>([^<]+)</b>`, "<b><b>x</b><b></b><b>y</c></b>"},
		{`W-[0-9]+`, "W-001 W- W-2"},
		{`x(.+)y`, "x\xffy\nxy x\n\ny"},
	} {
		compare(t, mustCompile(t, c.pattern), regexp.MustCompile(c.pattern), c.text)
	}
}

// FuzzLiteralScan is the matcher's oracle: on arbitrary text, every
// workload, example and paper pattern, and a pattern built from fuzzed
// (prefix, class, suffix) pieces, give the matches regexp gives.
func FuzzLiteralScan(f *testing.F) {
	fixed := append(workloadPatterns(f), examplePatterns...)
	compiled := make([]*rxscan.Regexp, len(fixed))
	oracles := make([]*regexp.Regexp, len(fixed))
	for i, p := range fixed {
		compiled[i], oracles[i] = mustCompile(f, p), regexp.MustCompile(p)
	}
	for _, s := range []struct {
		text, prefix, class, suffix string
		group                       bool
	}{
		{"aaab", "aa", "[ab]", "", true},
		{"aaab aab", "aa", "[ab]", "b", true},
		{"x=\xff\xfe< x=é<", "x=", "[^<]", "<", true},
		{"brand=Seiko brand= brand=Casio", "brand=", "[A-Za-z]", "", true},
		{`<p><b>Seiko's</p>`, "<p><b>", "[0-9a-zA-Z']", "", false},
		{"model=[SKX007] model=[]", "model=[", `[^\]]`, "]", true},
		{"k1 k22 k", "k", "[0-9]", " ", false},
		{"x\xffy x\ny", "x", ".", "y", true},
		{"iéi", "i", "[^é]", "i", true},
	} {
		f.Add(s.text, s.prefix, s.class, s.suffix, s.group)
	}
	f.Fuzz(func(t *testing.T, text, prefix, class, suffix string, group bool) {
		for i := range compiled {
			compare(t, compiled[i], oracles[i], text)
		}
		run := class + "+"
		if group {
			run = "(" + run + ")"
		}
		pattern := regexp.QuoteMeta(prefix) + run + regexp.QuoteMeta(suffix)
		oracle, err := regexp.Compile(pattern)
		if err != nil {
			return
		}
		compare(t, mustCompile(t, pattern), oracle, text)
	})
}

func compare(t *testing.T, re *rxscan.Regexp, oracle *regexp.Regexp, text string) {
	t.Helper()
	var got [][]int
	re.Each(text, func(loc []int) { got = append(got, append([]int(nil), loc...)) })
	if want := oracle.FindAllStringSubmatchIndex(text, -1); !reflect.DeepEqual(got, want) {
		t.Fatalf("%q (scan %v) over %q: got %v, want %v", oracle, re.Scans(), text, got, want)
	}
}

func mustCompile(t testing.TB, pattern string) *rxscan.Regexp {
	t.Helper()
	re, err := rxscan.Compile(pattern)
	if err != nil {
		t.Fatal(err)
	}
	return re
}
