package xmlpath

import "strings"

// This file keeps path evaluation as it stood before it moved to one
// allocation per result: a sibling slice per parent, a fresh slice per
// predicate, a dedupe after every step and a builder per DeepText. The
// differential fuzz target runs it beside SelectNodes, SelectStrings,
// SelectAllNodes and DeepText; the two must agree exactly.

func (p *Path) refSelectNodes(root *Node) []*Node {
	cur := []*Node{root}
	for _, st := range p.steps {
		var next []*Node
		for _, n := range cur {
			if st.descendant {
				refCollectDescendants(n, st, &next)
			} else {
				var siblings []*Node
				for _, c := range n.Children {
					if st.name == "*" || c.Name == st.name {
						siblings = append(siblings, c)
					}
				}
				next = append(next, refApplyPredicates(siblings, st.preds)...)
			}
		}
		cur = dedupeNodes(next)
	}
	return cur
}

func refCollectDescendants(n *Node, st step, out *[]*Node) {
	var siblings []*Node
	for _, c := range n.Children {
		if st.name == "*" || c.Name == st.name {
			siblings = append(siblings, c)
		}
	}
	*out = append(*out, refApplyPredicates(siblings, st.preds)...)
	for _, c := range n.Children {
		refCollectDescendants(c, st, out)
	}
}

func refApplyPredicates(nodes []*Node, preds []predicate) []*Node {
	cur := nodes
	for _, pred := range preds {
		var kept []*Node
		for i, n := range cur {
			if matchPredicate(n, i, pred) {
				kept = append(kept, n)
			}
		}
		cur = kept
	}
	return cur
}

func (p *Path) refSelectStrings(root *Node) []string {
	nodes := p.refSelectNodes(root)
	var out []string
	for _, n := range nodes {
		switch {
		case p.finalAttr != "":
			if v, ok := n.Attr(p.finalAttr); ok {
				out = append(out, v)
			}
		case p.finalText:
			out = append(out, n.Text())
		default:
			out = append(out, refDeepText(n))
		}
	}
	for _, alt := range p.union {
		out = append(out, alt.refSelectStrings(root)...)
	}
	return out
}

func (p *Path) refSelectAllNodes(root *Node) []*Node {
	out := p.refSelectNodes(root)
	for _, alt := range p.union {
		out = append(out, alt.refSelectNodes(root)...)
	}
	return dedupeNodes(out)
}

func refDeepText(n *Node) string {
	var b strings.Builder
	var walk func(*Node)
	walk = func(cur *Node) {
		b.WriteString(cur.text.String())
		for _, c := range cur.Children {
			walk(c)
		}
	}
	walk(n)
	return strings.TrimSpace(b.String())
}
