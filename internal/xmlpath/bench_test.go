package xmlpath

import (
	"fmt"
	"strings"
	"testing"
)

func benchDoc(b *testing.B, records int) *Node {
	b.Helper()
	var sb strings.Builder
	sb.WriteString("<catalog>")
	for i := 0; i < records; i++ {
		fmt.Fprintf(&sb, `<watch id="%d"><brand>b%d</brand><price>%d</price></watch>`, i, i%10, i)
	}
	sb.WriteString("</catalog>")
	root, err := ParseString(sb.String())
	if err != nil {
		b.Fatal(err)
	}
	return root
}

func BenchmarkSelectChild(b *testing.B) {
	b.ReportAllocs()
	root := benchDoc(b, 1000)
	p := MustCompile("/catalog/watch/brand")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := p.SelectStrings(root); len(got) != 1000 {
			b.Fatal("wrong count")
		}
	}
}

func BenchmarkSelectDescendantPredicate(b *testing.B) {
	b.ReportAllocs()
	root := benchDoc(b, 1000)
	p := MustCompile("//watch[brand='b3']/price")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := p.SelectStrings(root); len(got) != 100 {
			b.Fatal("wrong count")
		}
	}
}

func BenchmarkParseDocument(b *testing.B) {
	b.ReportAllocs()
	var sb strings.Builder
	sb.WriteString("<catalog>")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&sb, `<watch id="%d"><brand>b%d</brand></watch>`, i, i%10)
	}
	sb.WriteString("</catalog>")
	doc := sb.String()
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseString(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeepTextLeaf renders the deep text of leaf elements, what an
// element path like /catalog/watch/brand asks of every match.
func BenchmarkDeepTextLeaf(b *testing.B) {
	b.ReportAllocs()
	root := benchDoc(b, 1000)
	leaves := MustCompile("/catalog/watch/brand").SelectNodes(root)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range leaves {
			if n.DeepText() == "" {
				b.Fatal("empty text")
			}
		}
	}
}
