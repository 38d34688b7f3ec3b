package textsrc

import (
	"testing"
	"testing/quick"

	"repro/internal/rxscan"
)

// extract runs a pattern over one stored document, the way the
// extraction layer does: the store serves the content, the compiled
// pattern matches it.
func extract(s *Store, id, pattern string) ([]string, error) {
	content, err := s.Get(id)
	if err != nil {
		return nil, err
	}
	re, err := rxscan.Compile(pattern)
	if err != nil {
		return nil, err
	}
	return ExtractCompiled(content, re), nil
}

const priceList = `WatchCo wholesale price list (2006)
SKU W-001 brand=Seiko case=stainless-steel price=129.99
SKU W-002 brand=Casio case=resin price=15.00
SKU W-003 brand=Citizen case=titanium price=210.50
`

// TestExtractWholeMatch runs group-less patterns, one that takes the
// literal scan and one that falls back to regexp.
func TestExtractWholeMatch(t *testing.T) {
	s := New()
	s.MustAdd("prices.txt", priceList)
	for pattern, want := range map[string][]string{
		`W-[0-9]+`:       {"W-001", "W-002", "W-003"},
		`[0-9]+\.[0-9]+`: {"129.99", "15.00", "210.50"},
	} {
		got, err := extract(s, "prices.txt", pattern)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("Extract(%q) = %v", pattern, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%q: match %d = %q, want %q", pattern, i, got[i], want[i])
			}
		}
	}
}

func TestExtractCaptureGroup(t *testing.T) {
	s := New()
	s.MustAdd("prices.txt", priceList)
	got, err := extract(s, "prices.txt", `brand=([A-Za-z]+)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "Seiko" || got[2] != "Citizen" {
		t.Fatalf("Extract = %v", got)
	}
	prices, err := extract(s, "prices.txt", `price=([0-9.]+)`)
	if err != nil || len(prices) != 3 || prices[1] != "15.00" {
		t.Fatalf("prices = %v, %v", prices, err)
	}
}

func TestErrors(t *testing.T) {
	s := New()
	if err := s.Add("", "x"); err == nil {
		t.Error("empty ID accepted")
	}
	if _, err := s.Get("missing"); err == nil {
		t.Error("missing document returned")
	}
	if _, err := extract(s, "missing", "x"); err == nil {
		t.Error("extract from missing document succeeded")
	}
	s.MustAdd("d", "content")
	if _, err := extract(s, "d", "["); err == nil {
		t.Error("invalid pattern accepted")
	}
}

func TestGetAndIDs(t *testing.T) {
	s := New()
	s.MustAdd("b", "2")
	s.MustAdd("a", "1")
	if ids := s.IDs(); len(ids) != 2 || ids[0] != "a" {
		t.Errorf("IDs = %v", ids)
	}
	if content, err := s.Get("a"); err != nil || content != "1" {
		t.Errorf("Get = %q, %v", content, err)
	}
}

func TestExtractStringNoMatches(t *testing.T) {
	got := ExtractCompiled("nothing here", mustCompile(t, `zz[0-9]+`))
	if got == nil || len(got) != 0 {
		t.Fatalf("got = %v", got)
	}
}

// Property: each value planted with a key=value scheme is recovered exactly.
func TestExtractRecoversPlantedValues(t *testing.T) {
	re := mustCompile(t, `value=([0-9]+)`)
	f := func(vals []uint16) bool {
		content := ""
		for _, v := range vals {
			content += "item value=" + itoa(int(v)) + " end\n"
		}
		got := ExtractCompiled(content, re)
		if len(got) != len(vals) {
			return false
		}
		for i, v := range vals {
			if got[i] != itoa(int(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func mustCompile(t *testing.T, pattern string) *rxscan.Regexp {
	t.Helper()
	re, err := rxscan.Compile(pattern)
	if err != nil {
		t.Fatal(err)
	}
	return re
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}
