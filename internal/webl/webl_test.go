package webl

import (
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"testing/quick"
)

// paperRule is the extraction rule printed in the paper (§2.3.1 step 2),
// reproduced verbatim apart from the URL pointing at the test fixture.
const paperRule = "var P = GetURL(\"http://www.eshop.com/products/watches.html\");\n" +
	"var pText = Text(P);\n" +
	"var regexpr = \"<p><b>\" + `[0-9a-zA-Z']+`;\n" +
	"var St = Str_Search(pText, regexpr);\n" +
	"var spliter = Str_Split(St[0][0],\"<>\");\n" +
	"var brand = Select(spliter[2],0,6);\n"

// paperPage is the HTML the paper shows for the example data source.
const paperPage = `<html><body><p> <b>Seiko Men's Automatic Dive Watch</b> </p></body></html>`

func paperFetcher() Fetcher {
	// The markup in the paper's rule expects <p><b> with no gap; serve both
	// forms so the regex finds the tight one.
	return MapFetcher{
		"http://www.eshop.com/products/watches.html": `<html><body><p><b>Seiko Men's Automatic Dive Watch</b></p></body></html>`,
	}
}

func run(t *testing.T, src string, env *Env) map[string]Value {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	globals, err := prog.Run(env)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return globals
}

func TestPaperRuleExtractsSeiko(t *testing.T) {
	globals := run(t, paperRule, &Env{Fetcher: paperFetcher()})
	brand, ok := globals["brand"].(string)
	if !ok {
		t.Fatalf("brand = %v (%T)", globals["brand"], globals["brand"])
	}
	if strings.TrimSpace(brand) != "Seiko" {
		t.Fatalf("brand = %q, want Seiko", brand)
	}
}

func TestArithmeticAndVariables(t *testing.T) {
	globals := run(t, `
var a = 2 + 3 * 4
var b = (2 + 3) * 4
var c = 10 / 4
var d = 10 % 3
var e = -a + 1
a = a + 1
`, nil)
	checks := map[string]float64{"a": 15, "b": 20, "c": 2.5, "d": 1, "e": -13}
	for name, want := range checks {
		if got := globals[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestStringOps(t *testing.T) {
	globals := run(t, `
var s = "Hello" + ", " + "world"
var n = "n=" + 42
var up = Str_Upper(s)
var rep = Str_Replace(s, "world", "B2B")
var has = Str_Contains(s, "world")
var idx = Str_Index(s, "world")
var ln = Len(s)
var trimmed = Str_Trim("  x  ")
var lower = Str_Lower("ABC")
`, nil)
	if globals["s"] != "Hello, world" || globals["n"] != "n=42" {
		t.Errorf("concat: %v %v", globals["s"], globals["n"])
	}
	if globals["up"] != "HELLO, WORLD" || globals["rep"] != "Hello, B2B" {
		t.Errorf("upper/replace: %v %v", globals["up"], globals["rep"])
	}
	if globals["has"] != true || globals["idx"] != float64(7) || globals["ln"] != float64(12) {
		t.Errorf("contains/index/len: %v %v %v", globals["has"], globals["idx"], globals["ln"])
	}
	if globals["trimmed"] != "x" || globals["lower"] != "abc" {
		t.Errorf("trim/lower: %v %v", globals["trimmed"], globals["lower"])
	}
}

func TestListsAndIndexing(t *testing.T) {
	globals := run(t, `
var xs = ["a", "b", "c"]
var first = xs[0]
xs[1] = "B"
var more = Append(xs, "d")
var n = Len(more)
var joined = xs + ["z"]
var str = xs[2][0]
`, nil)
	if globals["first"] != "a" {
		t.Errorf("first = %v", globals["first"])
	}
	xs := globals["xs"].([]Value)
	if xs[1] != "B" {
		t.Errorf("xs[1] = %v", xs[1])
	}
	if globals["n"] != float64(4) {
		t.Errorf("n = %v", globals["n"])
	}
	if joined := globals["joined"].([]Value); len(joined) != 4 || joined[3] != "z" {
		t.Errorf("joined = %v", joined)
	}
	if globals["str"] != "c" {
		t.Errorf("string index = %v", globals["str"])
	}
}

func TestControlFlow(t *testing.T) {
	globals := run(t, `
var total = 0
var i = 0
while i < 10 {
	if i % 2 == 0 {
		total = total + i
	} else if i == 5 {
		total = total + 100
	} else {
		total = total - 1
	}
	i = i + 1
}
`, nil)
	// evens 0+2+4+6+8 = 20, i==5 adds 100, odds 1,3,7,9 subtract 4.
	if globals["total"] != float64(116) {
		t.Errorf("total = %v, want 116", globals["total"])
	}
}

func TestReturnSetsResult(t *testing.T) {
	globals := run(t, `
var xs = Fields("alpha beta gamma")
return xs[1]
var never = 1
`, nil)
	if globals["result"] != "beta" {
		t.Errorf("result = %v", globals["result"])
	}
	if _, ok := globals["never"]; ok {
		t.Error("statements after return executed")
	}
}

func TestComparisonAndLogic(t *testing.T) {
	globals := run(t, `
var a = 1 < 2 and "x" == "x"
var b = 1 > 2 or not false
var c = "abc" < "abd"
var d = [1, 2] == [1, 2]
var e = [1, 2] != [1, 3]
var f = 3 <= 3 && 4 >= 5
var g = true || false
`, nil)
	for name, want := range map[string]bool{"a": true, "b": true, "c": true, "d": true, "e": true, "f": false, "g": true} {
		if globals[name] != want {
			t.Errorf("%s = %v, want %v", name, globals[name], want)
		}
	}
}

func TestVisibleTextAndToNumber(t *testing.T) {
	fetcher := MapFetcher{"http://shop/p1": `<html><body><p>Price: <b>129.99</b> EUR</p><script>junk()</script></body></html>`}
	globals := run(t, `
var P = GetURL("http://shop/p1")
var text = VisibleText(P)
var m = Str_Search(text, "[0-9]+\\.[0-9]+")
var price = ToNumber(m[0][0])
var s = ToString(price)
`, &Env{Fetcher: fetcher})
	if globals["price"] != 129.99 {
		t.Errorf("price = %v", globals["price"])
	}
	if globals["s"] != "129.99" {
		t.Errorf("s = %v", globals["s"])
	}
	if text := globals["text"].(string); strings.Contains(text, "junk") {
		t.Errorf("script leaked: %q", text)
	}
}

func TestCaptureGroups(t *testing.T) {
	globals := run(t, "var m = Str_Search(\"id=42 id=77\", `id=([0-9]+)`)\nvar first = m[0][1]\nvar second = m[1][1]\nvar count = Len(m)\n", nil)
	if globals["first"] != "42" || globals["second"] != "77" || globals["count"] != float64(2) {
		t.Errorf("captures = %v %v %v", globals["first"], globals["second"], globals["count"])
	}
}

// TestStrSearchRows checks Str_Search's rows against regexp for a
// pattern that takes the literal scan, one with no group, and fallbacks
// with an unmatched group and with two groups.
func TestStrSearchRows(t *testing.T) {
	const text = "<b>Seiko</b> <b></b> <b>Casio</b> id=7 x=1;y"
	for _, pattern := range []string{`<b>([^<]+)</b>`, `<b>[A-Za-z]+`, `id=([0-9]+)|(y)`, `x=([0-9]);(y)`} {
		got, err := biStrSearch(nil, []Value{text, pattern})
		if err != nil {
			t.Fatal(err)
		}
		var want []Value
		for _, m := range regexp.MustCompile(pattern).FindAllStringSubmatch(text, -1) {
			row := make([]Value, len(m))
			for i, g := range m {
				row[i] = g
			}
			want = append(want, row)
		}
		if !reflect.DeepEqual(got, Value(want)) {
			t.Errorf("Str_Search(%q) = %v, want %v", pattern, got, want)
		}
	}
}

// TestRegexpCacheFlushesAtBound fills the pattern cache past its bound
// and checks that a later pattern is still cached.
func TestRegexpCacheFlushesAtBound(t *testing.T) {
	for i := 0; i <= regexpCacheBound; i++ {
		if _, err := compileRegexp(fmt.Sprintf("p%d=([0-9]+)", i)); err != nil {
			t.Fatal(err)
		}
	}
	first, err := compileRegexp("later=([0-9]+)")
	if err != nil {
		t.Fatal(err)
	}
	again, _ := compileRegexp("later=([0-9]+)")
	regexpCache.Lock()
	n := len(regexpCache.m)
	regexpCache.Unlock()
	if again != first || n > regexpCacheBound {
		t.Errorf("later pattern cached: %v; cache holds %d, bound %d", again == first, n, regexpCacheBound)
	}
}

func TestLinesBuiltin(t *testing.T) {
	globals := run(t, "var ls = Lines(\"a\\r\\nb\\nc\")\nvar n = Len(ls)\nvar second = ls[1]\n", nil)
	if globals["n"] != float64(3) || globals["second"] != "b" {
		t.Errorf("lines = %v", globals["ls"])
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := map[string]string{
		"undefined variable":    `var a = b`,
		"assign undeclared":     `a = 1`,
		"index out of range":    `var a = [1][5]`,
		"index non-list":        `var a = 5[0]`,
		"bad index type":        `var a = [1]["x"]`,
		"division by zero":      `var a = 1 / 0`,
		"modulo by zero":        `var a = 1 % 0`,
		"unary minus on string": `var a = -"x"`,
		"numeric op on string":  `var a = "x" - 1`,
		"order across types":    `var a = "x" < 1`,
		"unknown function":      `var a = NoSuch(1)`,
		"bad regexp":            "var a = Str_Search(\"x\", \"[\")",
		"no fetcher":            `var a = GetURL("http://x")`,
		"missing page":          `var a = Text(42)`,
		"bad arg count":         `var a = Len()`,
		"empty separator":       `var a = Str_Split("x", "")`,
		"tonumber garbage":      `var a = ToNumber("zz")`,
		"index assign non-list": `var s = "abc" s[0] = "x"`,
	}
	for name, src := range cases {
		prog, err := Compile(src)
		if err != nil {
			t.Errorf("%s: compile error %v (want runtime error)", name, err)
			continue
		}
		if _, err := prog.Run(&Env{}); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		`var = 1`,
		`var a 1`,
		`if { }`,
		`while true`,
		`var a = (1`,
		`var a = [1, `,
		`var a = "unterminated`,
		"var a = `unterminated",
		`var a = 1 $ 2`,
		`var a = "bad \q escape"`,
		`1 = 2`,
		`var a = Foo(1,`,
		`if true { var a = 1`,
		`var a = "multi
line"`,
	}
	for _, src := range bad {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q) succeeded", src)
		}
	}
}

func TestInfiniteLoopBudget(t *testing.T) {
	prog := MustCompile(`while true { }`)
	_, err := prog.Run(&Env{MaxSteps: 1000})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("err = %v, want budget exhaustion", err)
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCompile did not panic")
		}
	}()
	MustCompile(`var = `)
}

func TestCommentsAndSemicolons(t *testing.T) {
	globals := run(t, `
// leading comment
var a = 1; var b = 2 # trailing comment
var c = a + b
`, nil)
	if globals["c"] != float64(3) {
		t.Errorf("c = %v", globals["c"])
	}
}

func TestProgramSource(t *testing.T) {
	src := `var a = 1`
	if got := MustCompile(src).Source(); got != src {
		t.Errorf("Source() = %q", got)
	}
}

// Property: Select never panics and always returns a substring.
func TestSelectClampProperty(t *testing.T) {
	f := func(s string, start, end int8) bool {
		prog := MustCompile(`var out = Select(s, a, b)`)
		// Pre-seed globals via a tiny program wrapper instead: compile with
		// literals to avoid injection of arbitrary strings into source.
		_ = prog
		in := &interp{env: &Env{}, globals: map[string]Value{}, budget: 100}
		v, err := biSelect(in, []Value{s, float64(start), float64(end)})
		if err != nil {
			return false
		}
		sub := v.(string)
		return strings.Contains(s, sub) || sub == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPaperPageVisibleForm(t *testing.T) {
	// The looser page from the paper (with spaces around <b>) still yields
	// the brand via a whitespace-tolerant rule — the kind of maintenance
	// edit §2.3 anticipates for web sources.
	fetcher := MapFetcher{"http://www.eshop.com/products/watches.html": paperPage}
	rule := "var P = GetURL(\"http://www.eshop.com/products/watches.html\")\n" +
		"var St = Str_Search(Text(P), `<b>[0-9a-zA-Z' ]+</b>`)\n" +
		"var inner = Str_Split(St[0][0], \"<>\")\n" +
		"var brand = Select(inner[1], 0, 5)\n"
	globals := run(t, rule, &Env{Fetcher: fetcher})
	if globals["brand"] != "Seiko" {
		t.Fatalf("brand = %v", globals["brand"])
	}
}
