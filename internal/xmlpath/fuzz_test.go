package xmlpath

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzCompile checks the path compiler never panics and compiled paths
// evaluate safely against a fixed document.
func FuzzCompile(f *testing.F) {
	seeds := []string{
		"/catalog/watch/brand",
		"//watch[@id='2']/model",
		"//watch[brand!='Casio'][2]/case",
		"//@currency",
		"/catalog/*/price/text()",
		"catalog/watch",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	doc, err := ParseString(`<catalog><watch id="1"><brand>Seiko</brand></watch></catalog>`)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, expr string) {
		p, err := Compile(expr)
		if err != nil {
			return
		}
		_ = p.SelectStrings(doc)
		_ = p.SelectNodes(doc)
	})
}

// FuzzParse checks the XML tree builder never panics.
func FuzzParse(f *testing.F) {
	seeds := []string{
		`<a><b c="d">text</b></a>`,
		`<?xml version="1.0"?><x/>`,
		`<a>&amp;&lt;</a>`,
		`<a><b></a>`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		root, err := ParseString(doc)
		if err != nil {
			return
		}
		_ = root.DeepText()
	})
}

// byteChooser turns fuzz input into choices; an exhausted input chooses 0.
type byteChooser struct{ data []byte }

func (c *byteChooser) pick(n int) int {
	if len(c.data) == 0 {
		return 0
	}
	b := c.data[0]
	c.data = c.data[1:]
	return int(b) % n
}

func (c *byteChooser) from(options ...string) string { return options[c.pick(len(options))] }

// writeFuzzElement writes one element of a generated document: few names,
// so same-name elements nest (<a><a/></a>, where //a reaches the inner a
// from both), optional attributes, and text mixed between children.
func writeFuzzElement(c *byteChooser, b *strings.Builder, depth int) {
	name := c.from("a", "b", "c")
	b.WriteString("<" + name)
	b.WriteString(c.from("", ` id="1"`, ` id="2" k="x"`, ` k="y"`))
	b.WriteString(">")
	children := 0
	if depth < 4 {
		children = c.pick(4)
	}
	for i := 0; i < children; i++ {
		b.WriteString(c.from("", "", "t", " u ", "\n  ", "x y"))
		writeFuzzElement(c, b, depth+1)
	}
	b.WriteString(c.from("", "t", " u ", "1"))
	b.WriteString("</" + name + ">")
}

// fuzzPath builds a path of one or two union alternatives with child,
// descendant and * steps, positional, attribute and child predicates,
// and a final @attr or text() part.
func fuzzPath(c *byteChooser) string {
	var alts []string
	for a, n := 0, 1+c.pick(2); a < n; a++ {
		var b strings.Builder
		for s, steps := 0, 1+c.pick(3); s < steps; s++ {
			b.WriteString(c.from("/", "//"))
			b.WriteString(c.from("a", "b", "c", "*"))
			for p, preds := 0, c.pick(3); p < preds; p++ {
				b.WriteString(c.from("[1]", "[2]", "[@id]", "[@id='1']", "[@k!='x']", "[b]", "[b='t']", "[c!='u']", "[a='1']"))
			}
		}
		b.WriteString(c.from("", "", "", "/@id", "/text()", "//@k"))
		alts = append(alts, b.String())
	}
	return strings.Join(alts, " | ")
}

func sameNodes(a, b []*Node) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzPathMatchesReference checks SelectNodes, SelectStrings,
// SelectAllNodes and DeepText against the per-parent reference
// evaluation (reference_test.go) on generated documents and paths: the
// same nodes in the same order, and the same strings.
func FuzzPathMatchesReference(f *testing.F) {
	seeds := [][]byte{
		{},
		{0, 0, 2, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0},
		{0, 1, 3, 2, 0, 2, 1, 2, 0, 3, 0, 0, 4, 2, 1, 0, 1, 0, 1, 1, 1, 1, 0, 0, 1, 4, 3},
		{1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 1, 1, 0, 0, 0, 0, 5, 3, 2, 1, 0, 2},
		[]byte("nested same-name elements with mixed text and unions"),
		[]byte("0010002000000000000011001"), // //a//a over <a><a><a/><a/></a></a>: needs the dedupe
		[]byte("\x00\x01\x03\x00\x00\x01\x03\x00\x00\x01\x02\x00\x00\x00\x00\x00\x00\x00\x00\x01\x02\x01\x00\x00\x00\x01\x00\x00\x01\x00"),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &byteChooser{data: data}
		var b strings.Builder
		writeFuzzElement(c, &b, 0)
		root, err := ParseString(b.String())
		if err != nil {
			t.Fatalf("generated document %q: %v", b.String(), err)
		}
		var walk func(*Node)
		walk = func(n *Node) {
			if got, want := n.DeepText(), refDeepText(n); got != want {
				t.Fatalf("%s: DeepText of <%s> = %q, reference %q", b.String(), n.Name, got, want)
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(root)
		for q := 0; q < 4; q++ {
			expr := fuzzPath(c)
			p, err := Compile(expr)
			if err != nil {
				continue
			}
			if got, want := p.SelectNodes(root), p.refSelectNodes(root); !sameNodes(got, want) {
				t.Fatalf("%s on %s: SelectNodes gave %d nodes, reference %d", expr, b.String(), len(got), len(want))
			}
			if got, want := p.SelectAllNodes(root), p.refSelectAllNodes(root); !sameNodes(got, want) {
				t.Fatalf("%s on %s: SelectAllNodes gave %d nodes, reference %d", expr, b.String(), len(got), len(want))
			}
			if got, want := p.SelectStrings(root), p.refSelectStrings(root); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s on %s: SelectStrings = %q, reference %q", expr, b.String(), got, want)
			}
		}
	})
}
