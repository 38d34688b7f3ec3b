package xmlstore

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/xmlpath"
)

// extract runs a path expression over one stored document, the way the
// extraction layer does: the store serves the parsed document, the
// compiled path selects from it.
func extract(s *Store, id, expr string) ([]string, error) {
	root, err := s.Get(id)
	if err != nil {
		return nil, err
	}
	p, err := xmlpath.Compile(expr)
	if err != nil {
		return nil, err
	}
	return p.SelectStrings(root), nil
}

const doc = `<catalog><watch id="1"><brand>Seiko</brand></watch><watch id="2"><brand>Casio</brand></watch></catalog>`

func TestAddGetExtract(t *testing.T) {
	s := New()
	if err := s.Add("xml_7", doc); err != nil {
		t.Fatal(err)
	}
	got, err := extract(s, "xml_7", "/catalog/watch/brand")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "Seiko" || got[1] != "Casio" {
		t.Fatalf("Extract = %v", got)
	}
	root, err := s.Get("xml_7")
	if err != nil || root == nil {
		t.Fatalf("Get: %v", err)
	}
	if ids := s.IDs(); len(ids) != 1 || ids[0] != "xml_7" {
		t.Errorf("IDs = %v", ids)
	}
}

func TestErrors(t *testing.T) {
	s := New()
	if err := s.Add("", doc); err == nil {
		t.Error("empty ID accepted")
	}
	if err := s.Add("bad", "<unclosed>"); err == nil {
		t.Error("malformed document accepted")
	}
	if _, err := s.Get("missing"); err == nil {
		t.Error("missing document returned")
	}
	if _, err := extract(s, "missing", "/a"); err == nil {
		t.Error("extract from missing document succeeded")
	}
	s.MustAdd("ok", doc)
	if _, err := extract(s, "ok", "//["); err == nil {
		t.Error("bad path accepted")
	}
}

func TestReplaceDocument(t *testing.T) {
	s := New()
	s.MustAdd("d", `<a><v>1</v></a>`)
	s.MustAdd("d", `<a><v>2</v></a>`)
	got, err := extract(s, "d", "/a/v")
	if err != nil || len(got) != 1 || got[0] != "2" {
		t.Fatalf("Extract after replace = %v, %v", got, err)
	}
}

func TestMustAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAdd did not panic")
		}
	}()
	New().MustAdd("x", "not xml")
}

func TestConcurrentUse(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				id := fmt.Sprintf("doc-%d-%d", w, i)
				s.MustAdd(id, doc)
				if _, err := extract(s, id, "//brand"); err != nil {
					t.Errorf("Extract: %v", err)
					return
				}
				s.IDs()
			}
		}(w)
	}
	wg.Wait()
	if got := len(s.IDs()); got != 240 {
		t.Fatalf("IDs = %d, want 240", got)
	}
}

func TestLargeDocumentOrder(t *testing.T) {
	var b strings.Builder
	b.WriteString("<catalog>")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, "<watch><brand>b%03d</brand></watch>", i)
	}
	b.WriteString("</catalog>")
	s := New()
	s.MustAdd("big", b.String())
	got, err := extract(s, "big", "//brand")
	if err != nil || len(got) != 200 {
		t.Fatalf("Extract = %d values, %v", len(got), err)
	}
	for i, v := range got {
		if v != fmt.Sprintf("b%03d", i) {
			t.Fatalf("value %d = %q, document order broken", i, v)
		}
	}
}
