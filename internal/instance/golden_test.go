package instance

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestOWLGolden pins the exact OWL serialization of the paper's worked
// example. Any change to instance numbering, literal typing, prefix
// handling, or RDF/XML layout shows up as a golden diff — the output format
// is a wire contract for B2B consumers, not an implementation detail.
// Regenerate deliberately with: go test ./internal/instance -run Golden -update
func TestOWLGolden(t *testing.T) {
	w := newWorld(t)
	res := paperResult(t, w)
	got, err := serializeString(w.gen, res, FormatOWL)
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "paper_result.owl", got)

	ttl, err := serializeString(w.gen, res, FormatTurtle)
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "paper_result.ttl", ttl)

	nt, err := serializeString(w.gen, res, FormatNTriples)
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "paper_result.nt", nt)

	txt, err := serializeString(w.gen, res, FormatText)
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "paper_result.txt", txt)
}

func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s: output drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}
