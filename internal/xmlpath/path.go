package xmlpath

import (
	"fmt"
	"strconv"
	"strings"
)

// Path is a compiled location path, possibly a union of several paths
// joined with "|" (results concatenate in union order, deduplicated).
type Path struct {
	expr  string
	steps []step
	// final describes the value produced by the last step: element nodes,
	// an attribute value, or text().
	finalAttr string // "@attr" final step
	finalText bool   // "text()" final step
	// union holds the remaining alternatives of an "a | b" expression.
	union []*Path
}

// step is one location step: an axis, a name test, and predicates.
type step struct {
	descendant bool // true for the // axis
	name       string
	preds      []predicate
}

// predKind discriminates predicate forms.
type predKind int

const (
	predPosition predKind = iota + 1
	predAttrEq
	predAttrNe
	predAttrExists
	predChildEq
	predChildNe
	predChildExists
)

type predicate struct {
	kind  predKind
	pos   int
	name  string
	value string
}

// MustCompile is Compile but panics on error; for statically-known paths.
func MustCompile(expr string) *Path {
	p, err := Compile(expr)
	if err != nil {
		panic(err)
	}
	return p
}

// Compile parses a location path expression.
func Compile(expr string) (*Path, error) {
	trimmed := strings.TrimSpace(expr)
	if trimmed == "" {
		return nil, fmt.Errorf("xmlpath: empty path")
	}
	// Union: split on '|' outside predicates.
	if parts := splitUnion(trimmed); len(parts) > 1 {
		first, err := Compile(parts[0])
		if err != nil {
			return nil, err
		}
		for _, alt := range parts[1:] {
			compiled, err := Compile(alt)
			if err != nil {
				return nil, err
			}
			first.union = append(first.union, compiled)
		}
		first.expr = trimmed
		return first, nil
	}
	p := &Path{expr: trimmed}
	rest := trimmed
	// A leading "//" makes the first step a descendant step; a leading "/"
	// is an absolute child step. Relative paths behave like absolute ones
	// because evaluation starts at the synthetic document root.
	for rest != "" {
		descendant := false
		switch {
		case strings.HasPrefix(rest, "//"):
			descendant = true
			rest = rest[2:]
		case strings.HasPrefix(rest, "/"):
			rest = rest[1:]
		}
		if rest == "" {
			return nil, fmt.Errorf("xmlpath: path %q ends with a slash", expr)
		}
		token, remainder, err := splitStep(rest)
		if err != nil {
			return nil, fmt.Errorf("xmlpath: path %q: %w", expr, err)
		}
		rest = remainder

		switch {
		case strings.HasPrefix(token, "@"):
			if rest != "" {
				return nil, fmt.Errorf("xmlpath: path %q: attribute step must be last", expr)
			}
			name := token[1:]
			if name == "" {
				return nil, fmt.Errorf("xmlpath: path %q: empty attribute name", expr)
			}
			if descendant {
				// //@attr selects the attribute on any descendant.
				p.steps = append(p.steps, step{descendant: true, name: "*"})
			}
			p.finalAttr = name
		case token == "text()":
			if rest != "" {
				return nil, fmt.Errorf("xmlpath: path %q: text() must be last", expr)
			}
			p.finalText = true
		default:
			st, err := parseStep(token)
			if err != nil {
				return nil, fmt.Errorf("xmlpath: path %q: %w", expr, err)
			}
			st.descendant = descendant
			p.steps = append(p.steps, st)
		}
	}
	if len(p.steps) == 0 && p.finalAttr == "" && !p.finalText {
		return nil, fmt.Errorf("xmlpath: path %q selects nothing", expr)
	}
	return p, nil
}

// splitUnion splits a path expression on top-level '|' characters.
func splitUnion(expr string) []string {
	var parts []string
	depth := 0
	start := 0
	for i := 0; i < len(expr); i++ {
		switch expr[i] {
		case '[':
			depth++
		case ']':
			depth--
		case '|':
			if depth == 0 {
				parts = append(parts, strings.TrimSpace(expr[start:i]))
				start = i + 1
			}
		}
	}
	parts = append(parts, strings.TrimSpace(expr[start:]))
	return parts
}

// splitStep cuts the next step token (respecting brackets) off rest.
func splitStep(rest string) (token, remainder string, err error) {
	depth := 0
	for i := 0; i < len(rest); i++ {
		switch rest[i] {
		case '[':
			depth++
		case ']':
			depth--
			if depth < 0 {
				return "", "", fmt.Errorf("unbalanced ']' in step")
			}
		case '/':
			if depth == 0 {
				return rest[:i], rest[i:], nil
			}
		}
	}
	if depth != 0 {
		return "", "", fmt.Errorf("unbalanced '[' in step")
	}
	return rest, "", nil
}

// parseStep parses "name[pred1][pred2]".
func parseStep(token string) (step, error) {
	st := step{}
	nameEnd := strings.IndexByte(token, '[')
	if nameEnd < 0 {
		st.name = token
	} else {
		st.name = token[:nameEnd]
		preds := token[nameEnd:]
		for preds != "" {
			if preds[0] != '[' {
				return step{}, fmt.Errorf("malformed predicate in %q", token)
			}
			end := strings.IndexByte(preds, ']')
			if end < 0 {
				return step{}, fmt.Errorf("unterminated predicate in %q", token)
			}
			pred, err := parsePredicate(preds[1:end])
			if err != nil {
				return step{}, err
			}
			st.preds = append(st.preds, pred)
			preds = preds[end+1:]
		}
	}
	if st.name == "" {
		return step{}, fmt.Errorf("step %q has no name test", token)
	}
	if st.name != "*" && !validXMLName(st.name) {
		return step{}, fmt.Errorf("invalid name test %q", st.name)
	}
	return st, nil
}

func parsePredicate(body string) (predicate, error) {
	body = strings.TrimSpace(body)
	if body == "" {
		return predicate{}, fmt.Errorf("empty predicate")
	}
	if n, err := strconv.Atoi(body); err == nil {
		if n < 1 {
			return predicate{}, fmt.Errorf("positional predicate [%d] must be >= 1", n)
		}
		return predicate{kind: predPosition, pos: n}, nil
	}
	neg := false
	op := strings.Index(body, "!=")
	if op >= 0 {
		neg = true
	} else {
		op = strings.IndexByte(body, '=')
	}
	var name, value string
	hasValue := op >= 0
	if hasValue {
		name = strings.TrimSpace(body[:op])
		raw := strings.TrimSpace(body[op+1:])
		if neg {
			raw = strings.TrimSpace(body[op+2:])
		}
		if len(raw) < 2 || (raw[0] != '\'' && raw[0] != '"') || raw[len(raw)-1] != raw[0] {
			return predicate{}, fmt.Errorf("predicate value %q must be quoted", raw)
		}
		value = raw[1 : len(raw)-1]
	} else {
		name = body
	}

	isAttr := strings.HasPrefix(name, "@")
	if isAttr {
		name = name[1:]
	}
	if !validXMLName(name) {
		return predicate{}, fmt.Errorf("invalid predicate name %q", name)
	}
	switch {
	case isAttr && hasValue && neg:
		return predicate{kind: predAttrNe, name: name, value: value}, nil
	case isAttr && hasValue:
		return predicate{kind: predAttrEq, name: name, value: value}, nil
	case isAttr:
		return predicate{kind: predAttrExists, name: name}, nil
	case hasValue && neg:
		return predicate{kind: predChildNe, name: name, value: value}, nil
	case hasValue:
		return predicate{kind: predChildEq, name: name, value: value}, nil
	default:
		return predicate{kind: predChildExists, name: name}, nil
	}
}

func validXMLName(s string) bool {
	for i, r := range s {
		letter := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_'
		if i == 0 && !letter {
			return false
		}
		if !letter && !(r >= '0' && r <= '9') && r != '-' && r != '.' && r != ':' {
			return false
		}
	}
	return s != ""
}

// String returns the source expression.
func (p *Path) String() string { return p.expr }

// SelectNodes evaluates the path's element steps from root and returns the
// matching nodes in document order. Final @attr / text() parts are ignored;
// use SelectStrings for values.
//
// Evaluation allocates per step, not per parent. A step without
// predicates appends its matches straight into the step's output; a step
// with predicates filters each sibling group in one scratch slice reused
// for the whole call. Only a descendant step from more than one context
// node can reach a node twice (one context node may be an ancestor of
// another), so only such a step is deduplicated: the children of
// distinct parents are distinct, and one node's descendants are visited
// once each.
func (p *Path) SelectNodes(root *Node) []*Node {
	cur := []*Node{root}
	var scratch []*Node
	for _, st := range p.steps {
		var next []*Node
		for _, n := range cur {
			if st.descendant {
				collectDescendants(n, st, &next, &scratch)
			} else {
				next = appendMatches(next, n, st, &scratch)
			}
		}
		if st.descendant && len(cur) > 1 {
			next = dedupeNodes(next)
		}
		cur = next
	}
	return cur
}

// appendMatches appends the children of n that pass st's name test and
// predicates to out. Predicates filter the sibling group as a whole (a
// positional predicate counts within it), in *scratch.
func appendMatches(out []*Node, n *Node, st step, scratch *[]*Node) []*Node {
	if len(st.preds) == 0 {
		for _, c := range n.Children {
			if st.name == "*" || c.Name == st.name {
				out = append(out, c)
			}
		}
		return out
	}
	siblings := (*scratch)[:0]
	for _, c := range n.Children {
		if st.name == "*" || c.Name == st.name {
			siblings = append(siblings, c)
		}
	}
	*scratch = siblings
	return append(out, applyPredicates(siblings, st.preds)...)
}

// collectDescendants gathers descendant-or-self matches of st under n. The
// name test applies to every descendant element; predicates filter each
// matching sibling group independently, per XPath semantics for //.
func collectDescendants(n *Node, st step, out, scratch *[]*Node) {
	*out = appendMatches(*out, n, st, scratch)
	for _, c := range n.Children {
		collectDescendants(c, st, out, scratch)
	}
}

// applyPredicates filters nodes in place, one predicate after another.
func applyPredicates(nodes []*Node, preds []predicate) []*Node {
	for _, pred := range preds {
		kept := nodes[:0]
		for i, n := range nodes {
			if matchPredicate(n, i, pred) {
				kept = append(kept, n)
			}
		}
		nodes = kept
	}
	return nodes
}

func matchPredicate(n *Node, position int, pred predicate) bool {
	switch pred.kind {
	case predPosition:
		return position+1 == pred.pos
	case predAttrEq:
		v, ok := n.Attr(pred.name)
		return ok && v == pred.value
	case predAttrNe:
		v, ok := n.Attr(pred.name)
		return ok && v != pred.value
	case predAttrExists:
		_, ok := n.Attr(pred.name)
		return ok
	case predChildEq:
		for _, c := range n.Children {
			if c.Name == pred.name && c.Text() == pred.value {
				return true
			}
		}
		return false
	case predChildNe:
		for _, c := range n.Children {
			if c.Name == pred.name && c.Text() != pred.value {
				return true
			}
		}
		return false
	case predChildExists:
		return n.Child(pred.name) != nil
	default:
		return false
	}
}

// SelectStrings evaluates the full path and returns string values:
// attribute values for @attr paths, direct text for text() paths, and deep
// text content for element paths. Union alternatives contribute in order.
func (p *Path) SelectStrings(root *Node) []string {
	nodes := p.SelectNodes(root)
	var out []string
	if p.finalAttr == "" && len(nodes) > 0 {
		out = make([]string, 0, len(nodes))
	}
	for _, n := range nodes {
		switch {
		case p.finalAttr != "":
			if v, ok := n.Attr(p.finalAttr); ok {
				out = append(out, v)
			}
		case p.finalText:
			out = append(out, n.Text())
		default:
			out = append(out, n.DeepText())
		}
	}
	for _, alt := range p.union {
		out = append(out, alt.SelectStrings(root)...)
	}
	return out
}

// SelectAllNodes returns the node results of the path and every union
// alternative, deduplicated, in union order.
func (p *Path) SelectAllNodes(root *Node) []*Node {
	out := p.SelectNodes(root)
	for _, alt := range p.union {
		out = append(out, alt.SelectNodes(root)...)
	}
	return dedupeNodes(out)
}

func dedupeNodes(nodes []*Node) []*Node {
	seen := make(map[*Node]bool, len(nodes))
	out := nodes[:0]
	for _, n := range nodes {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}
