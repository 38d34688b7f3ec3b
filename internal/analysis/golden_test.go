package analysis

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The golden corpus: each analyzer has one or more packages under
// testdata/src with `// want "substring"` comments marking every line
// it must report. The test fails both ways — a want with no finding is
// a missed detection (regression), a finding with no want is a false
// positive.

var (
	loaderOnce sync.Once
	testLoader *Loader
	loaderErr  error
)

func corpusLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := filepath.Abs("../..")
		if err != nil {
			loaderErr = err
			return
		}
		testLoader, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	return testLoader
}

var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// wantsIn collects the expected findings of one corpus directory,
// keyed by file base name and line.
func wantsIn(t *testing.T, dir string) map[string][]string {
	t.Helper()
	wants := map[string][]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
				key := fmt.Sprintf("%s:%d", e.Name(), line)
				wants[key] = append(wants[key], m[1])
			}
		}
		f.Close()
	}
	return wants
}

func TestGoldenCorpus(t *testing.T) {
	cases := []struct {
		analyzer string
		dirs     []string
		typed    bool
	}{
		{"stdlibonly", []string{"stdlibonly"}, false},
		{"errwrap", []string{"errwrap"}, true},
		{"ctxfield", []string{"ctxfield"}, true},
		{"determinism", []string{"determinism/faultinject", "determinism/clean", "determinism/planner", "determinism/cluster"}, true},
		{"spanend", []string{"spanend"}, true},
		{"lockbalance", []string{"lockbalance"}, true},
		{"pkgdoc", []string{"pkgdoc/missing", "pkgdoc/malformed", "pkgdoc/clean", "pkgdoc/command"}, false},
		{"wgbalance", []string{"wgbalance"}, true},
		{"goroleak", []string{"goroleak/extract", "goroleak/other"}, true},
		{"errcheck", []string{"errcheck"}, true},
		{"leakytimer", []string{"leakytimer"}, true},
	}
	covered := map[string]bool{}
	for _, c := range cases {
		covered[c.analyzer] = true
		t.Run(c.analyzer, func(t *testing.T) {
			a := ByName(c.analyzer)
			if a == nil {
				t.Fatalf("analyzer %q not registered", c.analyzer)
			}
			for _, dir := range c.dirs {
				runCorpusDir(t, a, filepath.Join("testdata", "src", dir), c.typed)
			}
		})
	}
	// Every registered analyzer must have a golden corpus; a new analyzer
	// without regression coverage fails here.
	for _, a := range All() {
		if !covered[a.Name] {
			t.Errorf("analyzer %q has no golden corpus case", a.Name)
		}
	}
}

func runCorpusDir(t *testing.T, a *Analyzer, dir string, typed bool) {
	t.Helper()
	loader := corpusLoader(t)
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	unit, err := loader.LoadDir(abs, typed)
	if err != nil {
		t.Fatalf("%s: %v", dir, err)
	}
	// Suppressed findings are recorded for -json/-ignores but do not
	// count against the corpus: a `//lint:ignore` line is a "no finding"
	// line as far as the gate is concerned.
	findings := Active(Run([]*Unit{unit}, []*Analyzer{a}))

	wants := wantsIn(t, dir)
	matched := map[string]int{} // want key -> how many of its entries are consumed
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", filepath.Base(f.Pos.Filename), f.Pos.Line)
		ws := wants[key]
		idx := matched[key]
		if idx >= len(ws) {
			t.Errorf("%s: unexpected finding: %s", dir, f)
			continue
		}
		if !strings.Contains(f.Message, ws[idx]) {
			t.Errorf("%s: finding at %s = %q, want substring %q", dir, key, f.Message, ws[idx])
		}
		matched[key]++
	}
	for key, ws := range wants {
		if matched[key] < len(ws) {
			t.Errorf("%s: no finding at %s (want %q)", dir, key, ws[matched[key]])
		}
	}
}
