// Package xmlpath implements the XPath subset the S2S middleware uses to
// extract attribute values from XML data sources (paper §2.3.1 step 2:
// "For XML data sources, XPath and XQuery can be used").
//
// The supported grammar covers location paths with child ("/") and
// descendant ("//") axes, name tests and the "*" wildcard, attribute access
// ("@name"), the text() node test, and predicates: positional ("[2]"),
// attribute and child-value comparisons ("[@id='3']", "[brand='Seiko']",
// "!=" variants), and existence tests ("[@id]", "[brand]").
package xmlpath

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// Node is an element in a parsed XML document tree.
type Node struct {
	// Name is the element's local name; the synthetic document root has an
	// empty name.
	Name string
	// Attrs holds the element's attributes by local name.
	Attrs map[string]string
	// Children are the child elements in document order.
	Children []*Node
	// Parent is nil for the document root.
	Parent *Node

	text strings.Builder
}

// Text returns the concatenated character data directly inside the element
// (not including descendants), trimmed of surrounding whitespace.
func (n *Node) Text() string { return strings.TrimSpace(n.text.String()) }

// DeepText returns the concatenated text of the element and all of its
// descendants in document order, trimmed. A leaf's text is its own, so
// it needs no builder.
func (n *Node) DeepText() string {
	if len(n.Children) == 0 {
		return n.Text()
	}
	var b strings.Builder
	n.writeDeepText(&b)
	return strings.TrimSpace(b.String())
}

func (n *Node) writeDeepText(b *strings.Builder) {
	b.WriteString(n.text.String())
	for _, c := range n.Children {
		c.writeDeepText(b)
	}
}

// Attr returns the attribute value and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	v, ok := n.Attrs[name]
	return v, ok
}

// Child returns the first child element with the given name, or nil.
func (n *Node) Child(name string) *Node {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Parse reads an XML document into a node tree. The returned node is a
// synthetic document root whose single child is the document element, so
// absolute paths like /catalog/watch address the document element by name.
func Parse(r io.Reader) (*Node, error) {
	dec := xml.NewDecoder(r)
	root := &Node{Attrs: map[string]string{}}
	cur := root
	sawElement := false
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmlpath: parsing document: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			sawElement = true
			n := &Node{Name: t.Name.Local, Attrs: make(map[string]string, len(t.Attr)), Parent: cur}
			for _, a := range t.Attr {
				n.Attrs[a.Name.Local] = a.Value
			}
			cur.Children = append(cur.Children, n)
			cur = n
		case xml.EndElement:
			if cur.Parent == nil {
				return nil, fmt.Errorf("xmlpath: unbalanced end element %s", t.Name.Local)
			}
			cur = cur.Parent
		case xml.CharData:
			cur.text.Write(t)
		}
	}
	if !sawElement {
		return nil, fmt.Errorf("xmlpath: document has no elements")
	}
	if cur != root {
		return nil, fmt.Errorf("xmlpath: document ended inside element %s", cur.Name)
	}
	return root, nil
}

// ParseString is Parse over a string.
func ParseString(s string) (*Node, error) { return Parse(strings.NewReader(s)) }
