package rdf

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode/utf8"
)

// PrefixMap maps prefix labels (without the colon) to namespace IRIs.
type PrefixMap map[string]string

// DefaultPrefixes returns the prefixes used throughout the middleware.
func DefaultPrefixes() PrefixMap {
	return PrefixMap{
		"rdf":  RDFNS,
		"rdfs": RDFSNS,
		"owl":  OWLNS,
		"xsd":  XSDNS,
	}
}

// Shorten returns the prefixed form of an IRI if a registered namespace is a
// prefix of it and the remainder is a simple local name.
func (pm PrefixMap) Shorten(i IRI) (string, bool) {
	s := string(i)
	for label, ns := range pm {
		if strings.HasPrefix(s, ns) {
			local := s[len(ns):]
			if local != "" && isLocalName(local) {
				return label + ":" + local, true
			}
		}
	}
	return "", false
}

func isLocalName(s string) bool {
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == '-', r == '.':
		default:
			return false
		}
	}
	// A trailing dot would be consumed as a statement terminator.
	return !strings.HasSuffix(s, ".")
}

// WriteTurtle serializes the graph as Turtle, grouping statements by subject
// and abbreviating with the supplied prefixes (DefaultPrefixes if nil).
func WriteTurtle(w io.Writer, g *Graph, prefixes PrefixMap) error {
	if prefixes == nil {
		prefixes = DefaultPrefixes()
	}
	labels := make([]string, 0, len(prefixes))
	for l := range prefixes {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		if _, err := fmt.Fprintf(w, "@prefix %s: <%s> .\n", l, prefixes[l]); err != nil {
			return err
		}
	}
	if len(labels) > 0 {
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}

	triples := g.All()
	bySubject := make(map[string][]Triple)
	var order []string
	for _, t := range triples {
		k := t.Subject.Key()
		if _, ok := bySubject[k]; !ok {
			order = append(order, k)
		}
		bySubject[k] = append(bySubject[k], t)
	}
	sort.Strings(order)

	term := func(t Term) string {
		if iri, ok := t.(IRI); ok {
			if iri == RDFType {
				return "a"
			}
			if short, ok := prefixes.Shorten(iri); ok {
				return short
			}
		}
		if lit, ok := t.(Literal); ok && lit.Lang == "" && lit.Datatype != "" && lit.Datatype != XSDString {
			if short, ok := prefixes.Shorten(lit.Datatype); ok {
				return `"` + escapeLiteral(lit.Value) + `"^^` + short
			}
		}
		return t.String()
	}

	for _, subjKey := range order {
		ts := bySubject[subjKey]
		// Group by predicate to use ';' and ',' abbreviations.
		byPred := make(map[string][]Triple)
		var predOrder []string
		for _, t := range ts {
			k := term(t.Predicate)
			if _, ok := byPred[k]; !ok {
				predOrder = append(predOrder, k)
			}
			byPred[k] = append(byPred[k], t)
		}
		sort.Strings(predOrder)
		// rdf:type first, per convention.
		for i, p := range predOrder {
			if p == "a" && i != 0 {
				copy(predOrder[1:i+1], predOrder[:i])
				predOrder[0] = "a"
				break
			}
		}

		if _, err := fmt.Fprintf(w, "%s", term(ts[0].Subject)); err != nil {
			return err
		}
		for pi, p := range predOrder {
			sep := " ;\n    "
			if pi == 0 {
				sep = " "
			}
			objs := make([]string, 0, len(byPred[p]))
			for _, t := range byPred[p] {
				objs = append(objs, term(t.Object))
			}
			if _, err := fmt.Fprintf(w, "%s%s %s", sep, p, strings.Join(objs, ", ")); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, " .\n"); err != nil {
			return err
		}
	}
	return nil
}

// TurtleString returns the Turtle serialization of g.
func TurtleString(g *Graph, prefixes PrefixMap) string {
	var b strings.Builder
	//lint:ignore errcheck strings.Builder never fails, so WriteTurtle cannot either
	_ = WriteTurtle(&b, g, prefixes)
	return b.String()
}

// ParseTurtle reads a Turtle document into a new graph. The supported subset
// covers what WriteTurtle emits plus common hand-written forms: @prefix and
// @base directives, prefixed names, the 'a' keyword, ';' and ',' statement
// abbreviations, IRIs, blank node labels, and literals with language tags or
// datatypes.
func ParseTurtle(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("rdf: reading turtle: %w", err)
	}
	p := &turtleParser{input: string(data), prefixes: PrefixMap{}, graph: NewGraph()}
	if err := p.parse(); err != nil {
		return nil, err
	}
	return p.graph, nil
}

type turtleParser struct {
	input    string
	pos      int
	line     int
	prefixes PrefixMap
	base     string
	graph    *Graph
}

func (p *turtleParser) errf(format string, args ...any) error {
	return fmt.Errorf("rdf: turtle line %d: %s", p.line+1, fmt.Sprintf(format, args...))
}

func (p *turtleParser) parse() error {
	for {
		p.skipWS()
		if p.pos >= len(p.input) {
			return nil
		}
		if p.peekWord("@prefix") || p.peekWord("PREFIX") {
			if err := p.directivePrefix(); err != nil {
				return err
			}
			continue
		}
		if p.peekWord("@base") || p.peekWord("BASE") {
			if err := p.directiveBase(); err != nil {
				return err
			}
			continue
		}
		if err := p.statement(); err != nil {
			return err
		}
	}
}

func (p *turtleParser) directivePrefix() error {
	atForm := p.peekWord("@prefix")
	p.consumeWord()
	p.skipWS()
	label, err := p.prefixLabel()
	if err != nil {
		return err
	}
	p.skipWS()
	iri, err := p.iriRef()
	if err != nil {
		return err
	}
	p.prefixes[label] = string(iri)
	p.skipWS()
	if atForm {
		if !p.consume('.') {
			return p.errf("@prefix must end with '.'")
		}
	} else {
		p.consume('.') // optional for SPARQL-style PREFIX
	}
	return nil
}

func (p *turtleParser) directiveBase() error {
	atForm := p.peekWord("@base")
	p.consumeWord()
	p.skipWS()
	iri, err := p.iriRef()
	if err != nil {
		return err
	}
	p.base = string(iri)
	p.skipWS()
	if atForm && !p.consume('.') {
		return p.errf("@base must end with '.'")
	}
	return nil
}

func (p *turtleParser) statement() error {
	subj, err := p.term(false)
	if err != nil {
		return err
	}
	for {
		p.skipWS()
		pred, err := p.predicate()
		if err != nil {
			return err
		}
		for {
			p.skipWS()
			obj, err := p.term(true)
			if err != nil {
				return err
			}
			if err := p.graph.Add(Triple{Subject: subj, Predicate: pred, Object: obj}); err != nil {
				return p.errf("%v", err)
			}
			p.skipWS()
			if !p.consume(',') {
				break
			}
		}
		if !p.consume(';') {
			break
		}
		p.skipWS()
		// A ';' may be followed directly by '.' (trailing semicolon).
		if p.pos < len(p.input) && p.input[p.pos] == '.' {
			break
		}
	}
	p.skipWS()
	if !p.consume('.') {
		return p.errf("statement must end with '.'")
	}
	return nil
}

func (p *turtleParser) predicate() (Term, error) {
	if p.pos < len(p.input) && p.input[p.pos] == 'a' {
		// 'a' must be followed by whitespace to be the type keyword.
		if p.pos+1 < len(p.input) && isWS(p.input[p.pos+1]) {
			p.pos++
			return RDFType, nil
		}
	}
	t, err := p.term(false)
	if err != nil {
		return nil, err
	}
	if t.Kind() != KindIRI {
		return nil, p.errf("predicate must be an IRI, got %s", t)
	}
	return t, nil
}

// term parses an IRI, prefixed name, blank node, or (if allowLiteral) a
// literal, number, or boolean.
func (p *turtleParser) term(allowLiteral bool) (Term, error) {
	p.skipWS()
	if p.pos >= len(p.input) {
		return nil, p.errf("unexpected end of input")
	}
	c := p.input[p.pos]
	switch {
	case c == '<':
		return p.iriRef()
	case c == '_':
		return p.blankNode()
	case c == '"' || c == '\'':
		if !allowLiteral {
			return nil, p.errf("literal not allowed here")
		}
		return p.literal()
	case allowLiteral && (c == '+' || c == '-' || (c >= '0' && c <= '9')):
		return p.numericLiteral()
	case allowLiteral && (p.peekWord("true") || p.peekWord("false")):
		word := p.consumeWord()
		return Literal{Value: word, Datatype: XSDBoolean}, nil
	default:
		return p.prefixedName()
	}
}

func (p *turtleParser) iriRef() (IRI, error) {
	if !p.consume('<') {
		return "", p.errf("expected '<'")
	}
	start := p.pos
	for p.pos < len(p.input) && p.input[p.pos] != '>' {
		if p.input[p.pos] == '\n' {
			return "", p.errf("newline in IRI")
		}
		p.pos++
	}
	if p.pos >= len(p.input) {
		return "", p.errf("unterminated IRI")
	}
	raw := p.input[start:p.pos]
	p.pos++ // '>'
	if !utf8.ValidString(raw) {
		return "", p.errf("IRI is not valid UTF-8")
	}
	if p.base != "" && !strings.Contains(raw, "://") && !strings.HasPrefix(raw, "urn:") {
		raw = p.base + raw
	}
	return IRI(raw), nil
}

func (p *turtleParser) blankNode() (BlankNode, error) {
	if !strings.HasPrefix(p.input[p.pos:], "_:") {
		return "", p.errf("malformed blank node")
	}
	p.pos += 2
	start := p.pos
	for p.pos < len(p.input) && isNameChar(p.input[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return "", p.errf("empty blank node label")
	}
	return BlankNode(p.input[start:p.pos]), nil
}

func (p *turtleParser) prefixLabel() (string, error) {
	start := p.pos
	for p.pos < len(p.input) && p.input[p.pos] != ':' && !isWS(p.input[p.pos]) {
		p.pos++
	}
	if p.pos >= len(p.input) || p.input[p.pos] != ':' {
		return "", p.errf("expected ':' in prefix label")
	}
	label := p.input[start:p.pos]
	p.pos++ // ':'
	return label, nil
}

func (p *turtleParser) prefixedName() (IRI, error) {
	start := p.pos
	for p.pos < len(p.input) && p.input[p.pos] != ':' && isNameChar(p.input[p.pos]) {
		p.pos++
	}
	if p.pos >= len(p.input) || p.input[p.pos] != ':' {
		return "", p.errf("expected prefixed name near %q", p.input[start:min(start+12, len(p.input))])
	}
	label := p.input[start:p.pos]
	p.pos++ // ':'
	localStart := p.pos
	for p.pos < len(p.input) && isNameChar(p.input[p.pos]) {
		p.pos++
	}
	local := p.input[localStart:p.pos]
	// A trailing '.' is the statement terminator, not part of the name.
	for strings.HasSuffix(local, ".") {
		local = local[:len(local)-1]
		p.pos--
	}
	ns, ok := p.prefixes[label]
	if !ok {
		return "", p.errf("undeclared prefix %q", label)
	}
	return IRI(ns + local), nil
}

func (p *turtleParser) literal() (Literal, error) {
	quote := p.input[p.pos]
	long := strings.HasPrefix(p.input[p.pos:], strings.Repeat(string(quote), 3))
	var value string
	if long {
		p.pos += 3
		end := strings.Index(p.input[p.pos:], strings.Repeat(string(quote), 3))
		if end < 0 {
			return Literal{}, p.errf("unterminated long literal")
		}
		value = p.input[p.pos : p.pos+end]
		p.pos += end + 3
	} else {
		p.pos++
		var b strings.Builder
		for {
			if p.pos >= len(p.input) {
				return Literal{}, p.errf("unterminated literal")
			}
			c := p.input[p.pos]
			if c == quote {
				p.pos++
				break
			}
			if c == '\\' {
				np := &ntParser{input: p.input, pos: p.pos}
				r, err := np.escape()
				if err != nil {
					return Literal{}, p.errf("%v", err)
				}
				p.pos = np.pos
				b.WriteRune(r)
				continue
			}
			if c == '\n' {
				return Literal{}, p.errf("newline in literal")
			}
			b.WriteByte(c)
			p.pos++
		}
		value = b.String()
	}
	lit := Literal{Value: value}
	if p.pos < len(p.input) && p.input[p.pos] == '@' {
		p.pos++
		start := p.pos
		for p.pos < len(p.input) && (isNameChar(p.input[p.pos]) || p.input[p.pos] == '-') {
			p.pos++
		}
		lit.Lang = p.input[start:p.pos]
	} else if strings.HasPrefix(p.input[p.pos:], "^^") {
		p.pos += 2
		dt, err := p.term(false)
		if err != nil {
			return Literal{}, err
		}
		iri, ok := dt.(IRI)
		if !ok {
			return Literal{}, p.errf("datatype must be an IRI")
		}
		lit.Datatype = iri
	}
	return lit, nil
}

func (p *turtleParser) numericLiteral() (Literal, error) {
	start := p.pos
	if p.input[p.pos] == '+' || p.input[p.pos] == '-' {
		p.pos++
	}
	sawDot, sawExp := false, false
	for p.pos < len(p.input) {
		c := p.input[p.pos]
		switch {
		case c >= '0' && c <= '9':
			p.pos++
		case c == '.' && !sawDot && !sawExp && p.pos+1 < len(p.input) && p.input[p.pos+1] >= '0' && p.input[p.pos+1] <= '9':
			sawDot = true
			p.pos++
		case (c == 'e' || c == 'E') && !sawExp:
			sawExp = true
			p.pos++
			if p.pos < len(p.input) && (p.input[p.pos] == '+' || p.input[p.pos] == '-') {
				p.pos++
			}
		default:
			goto done
		}
	}
done:
	text := p.input[start:p.pos]
	if text == "" || text == "+" || text == "-" {
		return Literal{}, p.errf("malformed number")
	}
	dt := XSDInteger
	if sawExp {
		dt = XSDDouble
	} else if sawDot {
		dt = XSDDecimal
	}
	return Literal{Value: text, Datatype: dt}, nil
}

func (p *turtleParser) skipWS() {
	for p.pos < len(p.input) {
		c := p.input[p.pos]
		switch {
		case c == '\n':
			p.line++
			p.pos++
		case isWS(c):
			p.pos++
		case c == '#':
			for p.pos < len(p.input) && p.input[p.pos] != '\n' {
				p.pos++
			}
		default:
			return
		}
	}
}

func (p *turtleParser) consume(c byte) bool {
	if p.pos < len(p.input) && p.input[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

func (p *turtleParser) peekWord(w string) bool {
	if !strings.HasPrefix(p.input[p.pos:], w) {
		return false
	}
	end := p.pos + len(w)
	return end >= len(p.input) || !isNameChar(p.input[end])
}

func (p *turtleParser) consumeWord() string {
	start := p.pos
	for p.pos < len(p.input) && (isNameChar(p.input[p.pos]) || p.input[p.pos] == '@') {
		p.pos++
	}
	return p.input[start:p.pos]
}

func isWS(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

func isNameChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '_' || c == '-' || c == '.'
}
