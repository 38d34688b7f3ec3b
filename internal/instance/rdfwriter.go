package instance

// rdfwriter.go writes a result as RDF — RDF/XML (the paper's OWL
// output), Turtle and N-Triples — straight from its instances, without
// building an rdf.Graph. The bytes are exactly those the graph writers
// (owl.WriteRDFXML, rdf.WriteTurtle, rdf.WriteNTriples) produce for
// ToGraph(res); TestRDFWritersMatchGraph and FuzzRDFWritersMatchGraph
// pin that. The graph writers sort every triple by its N-Triples key and
// drop duplicates; this writer gets the same document from three rules:
//
//   - Subjects are in order of their term key "<IRI>". Every subject IRI
//     is the ontology base plus an instance ID, so that is ID order with
//     a '>' after each ID: watch_100 < watch_10 < watch_1 < watch_2.
//   - A subject's statements are in order of predicate key, then object
//     key — a literal's closing quote and datatype included — compared
//     segment by segment, without building the key.
//   - Statements with equal keys are written once.
//
// Every predicate is resolved before the first byte is written, so an
// unknown attribute or relation fails the answer with nothing written.

import (
	"bytes"
	"cmp"
	"encoding/xml"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/ontology"
	"repro/internal/owl"
	"repro/internal/rdf"
)

// rdfSyntax is one RDF syntax: its opening block, its writer of one
// subject, its closing string, the comment syntax of its error report,
// and whether every predicate needs a QName (RDF/XML's do).
type rdfSyntax struct {
	open     func(d *rdfDoc, b []byte) []byte
	subject  func(d *rdfDoc, b []byte, id string) []byte
	close    string
	comments commentSyntax
	qnames   bool
}

var (
	rdfXML   = rdfSyntax{(*rdfDoc).openRDFXML, (*rdfDoc).appendRDFXMLSubject, "</rdf:RDF>\n", xmlComments, true}
	turtle   = rdfSyntax{(*rdfDoc).openTurtle, (*rdfDoc).appendTurtleSubject, "", hashComments, false}
	nTriples = rdfSyntax{func(_ *rdfDoc, b []byte) []byte { return b }, (*rdfDoc).appendNTSubject, "", hashComments, false}
)

func rdfWriter(s *rdfSyntax) func(g *Generator) docWriter {
	return func(g *Generator) docWriter {
		return &rdfDoc{g: g, syntax: s, prefixes: g.prefixes(), base: string(g.ont.Base),
			attrs: map[string]*rdfPred{}, rels: map[relKey]*rdfPred{}, classes: map[*ontology.Class]*rdfTerm{}}
	}
}

// commentSyntax is how an RDF syntax comments out the error report: an
// opening line, a prefix per report line, a closing line, and what makes
// a report line legal inside the comment.
type commentSyntax struct {
	open, line, close string
	safe              func(string) string
}

var (
	// xmlComments is one XML comment after the document element; "--"
	// is forbidden inside it, and one pass turns "---" into "- --".
	xmlComments = commentSyntax{"<!-- s2s:error-report\n", "  ", "-->\n", func(s string) string {
		for strings.Contains(s, "--") {
			s = strings.ReplaceAll(s, "--", "- -")
		}
		return s
	}}
	// hashComments is a run of '#' line comments, as Turtle and
	// N-Triples write them; a line break would end the comment.
	hashComments = commentSyntax{"# s2s:error-report\n", "#   ", "",
		strings.NewReplacer("\n", " ", "\r", " ").Replace}
)

// appendErrorReport appends an RDF answer's error report, comments
// naming every source error and unmapped attribute, so a consumer sees
// which parts of a still parseable answer are missing (§2.6: the
// generator "handles the errors ... from the extraction phases").
func appendErrorReport(b []byte, res *Result, c commentSyntax) []byte {
	if len(res.Errors) == 0 && len(res.Missing) == 0 {
		return b
	}
	b = append(b, c.open...)
	for _, e := range res.Errors {
		b = appendAll(b, c.line, "error: ", c.safe(e.Error()), "\n")
	}
	for _, m := range res.Missing {
		b = appendAll(b, c.line, "unmapped: ", c.safe(m), "\n")
	}
	return append(b, c.close...)
}

// rdfTerm is an IRI in every form the writers need, built once per
// answer.
type rdfTerm struct {
	key    string // "<iri>", the sort key
	nt     string // N-Triples form, also Turtle's unabbreviated one
	ttl    string // Turtle form: "a", a prefixed name, or the N-Triples form
	quoted string // Go-quoted, as RDF/XML writes attribute values
}

// rdfPred is a predicate: its term, its RDF/XML element name, and the
// datatype suffixes of its literal objects (empty for xsd:string).
type rdfPred struct {
	rdfTerm
	qname              string
	dtNT, dtTTL, dtXML string
}

type objKind uint8

const (
	objTerm     objKind = iota // a fixed IRI: a class or owl:NamedIndividual
	objInstance                // an instance IRI, ns+id
	objLiteral                 // a literal: lit, N-Triples-escaped as esc
)

// rdfStmt is one statement of the subject being written.
type rdfStmt struct {
	pred     *rdfPred
	kind     objKind
	term     *rdfTerm
	ns, id   string
	lit, esc string
}

// key returns the statement's key after the subject all statements
// share — predicate key, a space, object key — as segments of it.
func (s rdfStmt) key() [5]string {
	switch s.kind {
	case objTerm:
		return [5]string{s.pred.key, " ", s.term.key}
	case objInstance:
		return [5]string{s.pred.key, " <", s.ns, s.id, ">"}
	}
	return [5]string{s.pred.key, ` "`, s.esc, `"`, s.pred.dtNT}
}

// cmpStmt orders statements as their triple keys sort.
func cmpStmt(a, b rdfStmt) int {
	ka, kb := a.key(), b.key()
	if a.pred == b.pred {
		return cmpSegs(ka[1:], kb[1:])
	}
	return cmpSegs(ka[:], kb[:])
}

// cmpSegs compares the concatenations of two segment lists.
func cmpSegs(a, b []string) int {
	var x, y string
	for {
		for x == "" && len(a) > 0 {
			x, a = a[0], a[1:]
		}
		for y == "" && len(b) > 0 {
			y, b = b[0], b[1:]
		}
		if x == "" || y == "" {
			return cmp.Compare(len(x), len(y))
		}
		n := min(len(x), len(y))
		if c := strings.Compare(x[:n], y[:n]); c != 0 {
			return c
		}
		x, y = x[n:], y[n:]
	}
}

// cmpTurtlePred orders Turtle predicate groups: "a" first, then by term.
func cmpTurtlePred(a, b rdfStmt) int {
	switch x, y := a.pred.ttl, b.pred.ttl; {
	case x == y:
		return 0
	case x == "a":
		return -1
	case y == "a":
		return 1
	default:
		return strings.Compare(x, y)
	}
}

type relKey struct {
	class *ontology.Class
	name  string
}

// rdfDoc writes one answer as RDF: its resolved predicate and class
// tables, and the statements of the subject being gathered.
type rdfDoc struct {
	g        *Generator
	syntax   *rdfSyntax
	prefixes rdf.PrefixMap
	labels   []string // prefix labels, sorted

	base      string
	basePlain bool // Go quoting leaves base unchanged

	typ, sourcedFrom *rdfPred // sourcedFrom is nil without provenance
	named            *rdfTerm // owl:NamedIndividual
	attrs            map[string]*rdfPred
	rels             map[relKey]*rdfPred
	classes          map[*ontology.Class]*rdfTerm

	id        string    // the subject being gathered
	stmts     []rdfStmt // its statements
	buf, subj []byte    // reused per subject
}

// head resolves every predicate and class of res, failing as ToGraph
// does before anything is written, writes the opening block, and
// returns the subjects in document order.
func (d *rdfDoc) head(w stringWriter, res *Result) ([]*Instance, error) {
	for l := range d.prefixes {
		d.labels = append(d.labels, l)
	}
	slices.Sort(d.labels)
	d.basePlain = plainIRI(d.base)
	d.named = d.newTerm(owl.NamedIndividual)
	var err error
	if d.typ, err = d.newPred(rdf.RDFType, ""); err != nil {
		return nil, err
	}
	if d.g.Provenance {
		if d.sourcedFrom, err = d.newPred(SourcedFrom, ""); err != nil {
			return nil, err
		}
	}
	subjects := res.Instances()
	for _, in := range subjects {
		if err := d.resolve(in); err != nil {
			return nil, err
		}
	}
	slices.SortFunc(subjects, func(a, b *Instance) int {
		return cmpSegs([]string{a.ID, ">"}, []string{b.ID, ">"})
	})
	d.buf = d.syntax.open(d, d.buf)
	_, err = w.Write(d.buf)
	return subjects, err
}

// resolve adds an instance's class, attributes and relations to the
// tables. Like ToGraph it names the instance's first unknown attribute
// ID, else its first unknown relation name.
func (d *rdfDoc) resolve(in *Instance) error {
	if _, ok := d.classes[in.Class]; !ok {
		d.classes[in.Class] = d.newTerm(d.g.ont.ClassIRI(in.Class))
	}
	for _, a := range in.Attrs {
		if _, ok := d.attrs[a.ID]; ok {
			continue
		}
		attr, ok := d.g.ont.Attribute(a.ID)
		if !ok {
			return fmt.Errorf("instance: %s has value for unknown attribute %q", in.ID, a.ID)
		}
		p, err := d.newPred(d.g.ont.AttributeIRI(attr), attr.Datatype)
		if err != nil {
			return err
		}
		d.attrs[a.ID] = p
	}
	for _, l := range in.Links {
		k := relKey{in.Class, l.Name}
		if _, ok := d.rels[k]; ok {
			continue
		}
		rel := findRelation(in.Class, l.Name)
		if rel == nil {
			return fmt.Errorf("instance: %s links through unknown relation %q", in.ID, l.Name)
		}
		p, err := d.newPred(d.g.ont.RelationIRI(rel), "")
		if err != nil {
			return err
		}
		d.rels[k] = p
	}
	return nil
}

func (d *rdfDoc) newTerm(iri rdf.IRI) *rdfTerm {
	return &rdfTerm{
		key:    "<" + string(iri) + ">",
		nt:     iri.String(),
		ttl:    d.turtleTerm(iri),
		quoted: strconv.Quote(string(iri)),
	}
}

func (d *rdfDoc) newPred(iri rdf.IRI, datatype rdf.IRI) (*rdfPred, error) {
	p := &rdfPred{rdfTerm: *d.newTerm(iri)}
	if prefix, local, ok := owl.QName(d.prefixes, iri); ok {
		p.qname = prefix + ":" + local
	} else if d.syntax.qnames {
		return nil, fmt.Errorf("owl: predicate %s has no registered prefix; rdf/xml requires QName properties", iri)
	}
	if datatype != "" && datatype != rdf.XSDString {
		p.dtNT = "^^" + datatype.String()
		p.dtTTL = p.dtNT
		if short, ok := d.prefixes.Shorten(datatype); ok {
			p.dtTTL = "^^" + short
		}
		p.dtXML = " rdf:datatype=" + strconv.Quote(string(datatype))
	}
	return p, nil
}

// turtleTerm is rdf.WriteTurtle's form of an IRI.
func (d *rdfDoc) turtleTerm(iri rdf.IRI) string {
	if iri == rdf.RDFType {
		return "a"
	}
	if short, ok := d.prefixes.Shorten(iri); ok {
		return short
	}
	return iri.String()
}

// instance adds an instance's statements to the subject being gathered.
// Instances sharing an ID are adjacent in the walk and are one subject,
// as they are in a graph, so a subject is written at the next new ID.
func (d *rdfDoc) instance(w stringWriter, in *Instance) error {
	if len(d.stmts) > 0 && in.ID != d.id {
		if err := d.writeSubject(w); err != nil {
			return err
		}
	}
	d.id = in.ID
	st := append(d.stmts,
		rdfStmt{pred: d.typ, kind: objTerm, term: d.classes[in.Class]},
		rdfStmt{pred: d.typ, kind: objTerm, term: d.named})
	if d.sourcedFrom != nil {
		for _, src := range in.Sources {
			st = append(st, literal(d.sourcedFrom, src))
		}
	}
	for _, a := range in.Attrs {
		p := d.attrs[a.ID]
		for _, v := range a.Values {
			st = append(st, literal(p, strings.TrimSpace(v)))
		}
	}
	for _, l := range in.Links {
		p := d.rels[relKey{in.Class, l.Name}]
		for _, t := range l.Targets {
			st = append(st, rdfStmt{pred: p, kind: objInstance, ns: d.base, id: t.ID})
		}
	}
	d.stmts = st
	return nil
}

// writeSubject writes the gathered subject, its statements sorted and
// without duplicates, in one Write from the reused buffer.
func (d *rdfDoc) writeSubject(w stringWriter) error {
	slices.SortFunc(d.stmts, cmpStmt)
	d.stmts = slices.CompactFunc(d.stmts, func(a, b rdfStmt) bool { return cmpStmt(a, b) == 0 })
	d.buf = d.syntax.subject(d, d.buf[:0], d.id)
	d.stmts = d.stmts[:0]
	_, err := w.Write(d.buf)
	return err
}

// tail writes the last subject, the closing string and the error
// report.
func (d *rdfDoc) tail(w stringWriter, res *Result) error {
	if len(d.stmts) > 0 {
		if err := d.writeSubject(w); err != nil {
			return err
		}
	}
	b := append(w.AvailableBuffer(), d.syntax.close...)
	_, err := w.Write(appendErrorReport(b, res, d.syntax.comments))
	return err
}

func literal(p *rdfPred, v string) rdfStmt {
	return rdfStmt{pred: p, kind: objLiteral, lit: v, esc: ntEscape(v)}
}

// openRDFXML and appendRDFXMLSubject write the owl.WriteRDFXML
// document. Every subject is an rdf:Description: it always has two
// types, its class and owl:NamedIndividual, so none is abbreviated to a
// typed node.
func (d *rdfDoc) openRDFXML(b []byte) []byte {
	b = append(b, xml.Header+"<rdf:RDF"...)
	for _, l := range d.labels {
		b = appendAll(b, "\n    xmlns:", l, "=")
		b = strconv.AppendQuote(b, d.prefixes[l])
	}
	return append(b, ">\n"...)
}

func (d *rdfDoc) appendRDFXMLSubject(b []byte, id string) []byte {
	b = append(b, "  <rdf:Description rdf:about="...)
	b = d.appendQuoted(b, id)
	b = append(b, ">\n"...)
	for _, s := range d.stmts {
		b = appendAll(b, "    <", s.pred.qname)
		switch s.kind {
		case objTerm:
			b = appendAll(b, " rdf:resource=", s.term.quoted, "/>\n")
		case objInstance:
			b = d.appendQuoted(append(b, " rdf:resource="...), s.id)
			b = append(b, "/>\n"...)
		default:
			b = appendAll(b, s.pred.dtXML, ">")
			b = appendXMLText(b, s.lit)
			b = appendAll(b, "</", s.pred.qname, ">\n")
		}
	}
	return append(b, "  </rdf:Description>\n"...)
}

// openTurtle and appendTurtleSubject write the rdf.WriteTurtle
// document: a subject's predicates grouped by Turtle term, "a" first,
// then in term order — with provenance on, ont:… precedes
// s2s:sourcedFrom though its key sorts after — and each group's objects
// in key order.
func (d *rdfDoc) openTurtle(b []byte) []byte {
	for _, l := range d.labels {
		b = appendAll(b, "@prefix ", l, ": <", d.prefixes[l], "> .\n")
	}
	if len(d.labels) > 0 {
		b = append(b, '\n')
	}
	return b
}

func (d *rdfDoc) appendTurtleSubject(b []byte, id string) []byte {
	b = d.appendTurtleIRI(b, id)
	slices.SortStableFunc(d.stmts, cmpTurtlePred)
	for i, s := range d.stmts {
		switch {
		case i == 0:
			b = appendAll(b, " ", s.pred.ttl, " ")
		case s.pred.ttl != d.stmts[i-1].pred.ttl:
			b = appendAll(b, " ;\n    ", s.pred.ttl, " ")
		default:
			b = append(b, ", "...)
		}
		switch s.kind {
		case objTerm:
			b = append(b, s.term.ttl...)
		case objInstance:
			b = d.appendTurtleIRI(b, s.id)
		default:
			b = appendAll(b, `"`, s.esc, `"`, s.pred.dtTTL)
		}
	}
	return append(b, " .\n"...)
}

// appendNTSubject writes a subject of the rdf.WriteNTriples document:
// one line per statement, in key order.
func (d *rdfDoc) appendNTSubject(b []byte, id string) []byte {
	d.subj = d.appendNTIRI(d.subj[:0], id)
	for _, s := range d.stmts {
		b = append(b, d.subj...)
		b = appendAll(b, " ", s.pred.nt, " ")
		switch s.kind {
		case objTerm:
			b = append(b, s.term.nt...)
		case objInstance:
			b = d.appendNTIRI(b, s.id)
		default:
			b = appendAll(b, `"`, s.esc, `"`, s.pred.dtNT)
		}
		b = append(b, " .\n"...)
	}
	return b
}

func (d *rdfDoc) appendNTIRI(b []byte, id string) []byte {
	return append(b, rdf.IRI(d.base+id).String()...)
}

func (d *rdfDoc) appendTurtleIRI(b []byte, id string) []byte {
	return append(b, d.turtleTerm(rdf.IRI(d.base+id))...)
}

// appendQuoted appends base+id Go-quoted, copying it as is when quoting
// would leave it unchanged.
func (d *rdfDoc) appendQuoted(b []byte, id string) []byte {
	if d.basePlain && plainIRI(id) {
		return appendAll(b, `"`, d.base, id, `"`)
	}
	return strconv.AppendQuote(b, d.base+id)
}

// plainIRI reports whether s is printable ASCII that Go quoting leaves
// unchanged.
func plainIRI(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= 0x7f || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// ntEscape returns a literal value as N-Triples escapes it (rdf.Literal's
// String without the quotes), and the value itself when nothing needs
// escaping.
func ntEscape(v string) string {
	if !strings.ContainsAny(v, "\\\"\n\r\t") && utf8.ValidString(v) {
		return v
	}
	s := rdf.Literal{Value: v}.String()
	return s[1 : len(s)-1]
}

// appendXMLText appends v escaped as xml.EscapeText escapes it.
// Printable ASCII without markup characters is copied as is.
func appendXMLText(b []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		if c := v[i]; c < ' ' || c >= utf8.RuneSelf || strings.IndexByte(`"'&<>`, c) >= 0 {
			buf := bytes.NewBuffer(b)
			//lint:ignore errcheck bytes.Buffer never fails, so EscapeText cannot either
			_ = xml.EscapeText(buf, []byte(v))
			return buf.Bytes()
		}
	}
	return append(b, v...)
}

func appendAll(b []byte, parts ...string) []byte {
	for _, p := range parts {
		b = append(b, p...)
	}
	return b
}
