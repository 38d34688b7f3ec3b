package instance

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestGeneratorTakesNoContext keeps the generator a pure compiler and
// serializer (paper §2.6): no non-test file of the package may import
// context or the obs package. The middleware opens the generate and
// serialize stages around its calls; nothing here opens a span.
func TestGeneratorTakesNoContext(t *testing.T) {
	forbidden := map[string]bool{"context": true, "repro/internal/obs": true}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if forbidden[path] {
				t.Errorf("%s imports %q", name, path)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no non-test files found")
	}
}
