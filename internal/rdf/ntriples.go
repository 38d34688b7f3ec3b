package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// WriteNTriples serializes the graph in canonical order, one statement per
// line, to w.
func WriteNTriples(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for _, t := range g.All() {
		if _, err := fmt.Fprintln(bw, t.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// NTriplesString returns the canonical N-Triples serialization of g.
func NTriplesString(g *Graph) string {
	var b strings.Builder
	//lint:ignore errcheck strings.Builder never fails, so WriteNTriples cannot either
	_ = WriteNTriples(&b, g)
	return b.String()
}

// ParseNTriples reads an N-Triples document into a new graph. Blank lines
// and '#' comment lines are skipped.
func ParseNTriples(r io.Reader) (*Graph, error) {
	g := NewGraph()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := parseNTriplesLine(line)
		if err != nil {
			return nil, fmt.Errorf("rdf: n-triples line %d: %w", lineNo, err)
		}
		if err := g.Add(t); err != nil {
			return nil, fmt.Errorf("rdf: n-triples line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("rdf: reading n-triples: %w", err)
	}
	return g, nil
}

func parseNTriplesLine(line string) (Triple, error) {
	p := &ntParser{input: line}
	subj, err := p.term()
	if err != nil {
		return Triple{}, fmt.Errorf("subject: %w", err)
	}
	pred, err := p.term()
	if err != nil {
		return Triple{}, fmt.Errorf("predicate: %w", err)
	}
	obj, err := p.term()
	if err != nil {
		return Triple{}, fmt.Errorf("object: %w", err)
	}
	p.skipSpace()
	if !p.consume('.') {
		return Triple{}, fmt.Errorf("missing terminating '.'")
	}
	p.skipSpace()
	if p.pos != len(p.input) {
		return Triple{}, fmt.Errorf("trailing content %q", p.input[p.pos:])
	}
	return Triple{Subject: subj, Predicate: pred, Object: obj}, nil
}

type ntParser struct {
	input string
	pos   int
}

func (p *ntParser) skipSpace() {
	for p.pos < len(p.input) && (p.input[p.pos] == ' ' || p.input[p.pos] == '\t') {
		p.pos++
	}
}

func (p *ntParser) consume(c byte) bool {
	if p.pos < len(p.input) && p.input[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

func (p *ntParser) term() (Term, error) {
	p.skipSpace()
	if p.pos >= len(p.input) {
		return nil, fmt.Errorf("unexpected end of line")
	}
	switch p.input[p.pos] {
	case '<':
		return p.iri()
	case '_':
		return p.blank()
	case '"':
		return p.literal()
	default:
		return nil, fmt.Errorf("unexpected character %q", p.input[p.pos])
	}
}

func (p *ntParser) iri() (IRI, error) {
	p.pos++ // consume '<'
	var b strings.Builder
	for p.pos < len(p.input) {
		c := p.input[p.pos]
		switch c {
		case '>':
			p.pos++
			// IRI.String writes runes, so an IRI that is not UTF-8 could
			// not be written back as it was read.
			if !utf8.ValidString(b.String()) {
				return "", fmt.Errorf("IRI is not valid UTF-8")
			}
			return IRI(b.String()), nil
		case '\\':
			r, err := p.escape()
			if err != nil {
				return "", err
			}
			b.WriteRune(r)
		default:
			b.WriteByte(c)
			p.pos++
		}
	}
	return "", fmt.Errorf("unterminated IRI")
}

func (p *ntParser) blank() (BlankNode, error) {
	if !strings.HasPrefix(p.input[p.pos:], "_:") {
		return "", fmt.Errorf("malformed blank node")
	}
	p.pos += 2
	start := p.pos
	for p.pos < len(p.input) && !isNTDelim(p.input[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return "", fmt.Errorf("empty blank node label")
	}
	return BlankNode(p.input[start:p.pos]), nil
}

func (p *ntParser) literal() (Literal, error) {
	p.pos++ // consume '"'
	var b strings.Builder
	for {
		if p.pos >= len(p.input) {
			return Literal{}, fmt.Errorf("unterminated literal")
		}
		c := p.input[p.pos]
		if c == '"' {
			p.pos++
			break
		}
		if c == '\\' {
			r, err := p.escape()
			if err != nil {
				return Literal{}, err
			}
			b.WriteRune(r)
			continue
		}
		b.WriteByte(c)
		p.pos++
	}
	lit := Literal{Value: b.String()}
	if p.pos < len(p.input) && p.input[p.pos] == '@' {
		p.pos++
		start := p.pos
		for p.pos < len(p.input) && !isNTDelim(p.input[p.pos]) {
			p.pos++
		}
		if p.pos == start {
			return Literal{}, fmt.Errorf("empty language tag")
		}
		lit.Lang = p.input[start:p.pos]
	} else if strings.HasPrefix(p.input[p.pos:], "^^") {
		p.pos += 2
		if p.pos >= len(p.input) || p.input[p.pos] != '<' {
			return Literal{}, fmt.Errorf("datatype must be an IRI")
		}
		dt, err := p.iri()
		if err != nil {
			return Literal{}, err
		}
		lit.Datatype = dt
	}
	return lit, nil
}

func (p *ntParser) escape() (rune, error) {
	// p.input[p.pos] == '\\'
	if p.pos+1 >= len(p.input) {
		return 0, fmt.Errorf("dangling escape")
	}
	c := p.input[p.pos+1]
	p.pos += 2
	switch c {
	case 't':
		return '\t', nil
	case 'n':
		return '\n', nil
	case 'r':
		return '\r', nil
	case '"':
		return '"', nil
	case '\\':
		return '\\', nil
	case 'u', 'U':
		n := 4
		if c == 'U' {
			n = 8
		}
		if p.pos+n > len(p.input) {
			return 0, fmt.Errorf("truncated \\%c escape", c)
		}
		var r rune
		for i := 0; i < n; i++ {
			d := p.input[p.pos+i]
			var v rune
			switch {
			case d >= '0' && d <= '9':
				v = rune(d - '0')
			case d >= 'a' && d <= 'f':
				v = rune(d-'a') + 10
			case d >= 'A' && d <= 'F':
				v = rune(d-'A') + 10
			default:
				return 0, fmt.Errorf("invalid hex digit %q in escape", d)
			}
			r = r<<4 | v
		}
		p.pos += n
		return r, nil
	default:
		return 0, fmt.Errorf("unknown escape \\%c", c)
	}
}

func isNTDelim(c byte) bool {
	return c == ' ' || c == '\t' || c == '.' || c == '<' || c == '"'
}
