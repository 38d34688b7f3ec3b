package instance

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"

	"repro/internal/ontology"
	"repro/internal/owl"
	"repro/internal/rdf"
)

// spareBufs keeps Serialize's staging buffers across queries. It is a
// leaky free list, not a sync.Pool: a pool hides a buffer in one P's
// private slot from a query that resumes on another P and drops it
// after two GCs, so on bulk_owl it missed one query in six. It keeps
// GOMAXPROCS buffers, as many as can be formed at once.
var spareBufs = make(chan *bytes.Buffer, runtime.GOMAXPROCS(0))

// maxPooledBuf caps the capacity kept for reuse; one huge result must
// not pin its buffer forever.
const maxPooledBuf = 1 << 20

// pieceRoom is the capacity reserved before a document's head, a power
// of two, so a fresh buffer doubles through powers of two and a
// document of at most 1 MiB ends in a buffer Serialize can keep (E7's
// 1.04 MB XML answer ended in 1.25 MiB when sized by its first piece).
const pieceRoom = 4 << 10

// Format is an output serialization format. OWL (RDF/XML) is the paper's
// primary output; the rest are the adaptable alternatives of §2.6.
type Format int

// Output formats.
const (
	FormatOWL Format = iota + 1
	FormatTurtle
	FormatNTriples
	FormatXML
	FormatJSON
	FormatText
)

// formatRow is one format: its names (the canonical one first), media
// type and writer, and eager, which declares that the writer's head
// reads only res.Plan and that its walk is res.Matched.
type formatRow struct {
	names     []string
	mediaType string
	writer    func(g *Generator) docWriter
	eager     bool
}

var formats = [...]formatRow{
	FormatOWL:      {[]string{"owl", "rdfxml", "rdf/xml", "rdf-xml"}, "application/rdf+xml", rdfWriter(&rdfXML), false},
	FormatTurtle:   {[]string{"turtle", "ttl"}, "text/turtle; charset=utf-8", rdfWriter(&turtle), false},
	FormatNTriples: {[]string{"ntriples", "nt", "n-triples"}, "application/n-triples", rdfWriter(&nTriples), false},
	FormatXML:      {[]string{"xml"}, "application/xml", func(g *Generator) docWriter { return xmlDoc{g} }, true},
	FormatJSON:     {[]string{"json"}, "application/json", func(*Generator) docWriter { return &jsonDoc{} }, true},
	FormatText:     {[]string{"text", "txt", "plain"}, "text/plain; charset=utf-8", func(*Generator) docWriter { return textDoc{} }, false},
}

// row is the format's row, nil for a value outside the table.
func (f Format) row() *formatRow {
	if f <= 0 || int(f) >= len(formats) {
		return nil
	}
	return &formats[f]
}

func (f Format) String() string {
	if r := f.row(); r != nil {
		return r.names[0]
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

// MediaType is the format's media type; a value outside the table is
// served as plain text.
func (f Format) MediaType() string {
	if r := f.row(); r != nil {
		return r.mediaType
	}
	return formats[FormatText].mediaType
}

// ParseFormat resolves a format name.
func ParseFormat(s string) (Format, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	for f := range formats {
		if slices.Contains(formats[f].names, name) {
			return Format(f), nil
		}
	}
	return 0, fmt.Errorf("instance: unknown output format %q", s)
}

// ToGraph converts a result into RDF: each instance becomes a named
// individual typed by its class, attribute values become datatype property
// assertions with XSD-typed literals, and links become object property
// assertions. The whole process is driven by the ontology schema, which is
// how the paper's §2.6 keeps the generator ontology-independent.
func (g *Generator) ToGraph(res *Result) (*rdf.Graph, error) {
	graph := rdf.NewGraph()
	iriOf := func(in *Instance) rdf.IRI {
		return g.ont.Base + rdf.IRI(in.ID)
	}
	emit := func(in *Instance) error {
		iri := iriOf(in)
		graph.MustAdd(rdf.T(iri, rdf.RDFType, g.ont.ClassIRI(in.Class)))
		graph.MustAdd(rdf.T(iri, rdf.RDFType, owl.NamedIndividual))
		if g.Provenance {
			for _, src := range in.Sources {
				graph.MustAdd(rdf.T(iri, SourcedFrom, rdf.String(src)))
			}
		}
		for _, a := range in.Attrs {
			attr, ok := g.ont.Attribute(a.ID)
			if !ok {
				return fmt.Errorf("instance: %s has value for unknown attribute %q", in.ID, a.ID)
			}
			for _, v := range a.Values {
				lit := rdf.Literal{Value: strings.TrimSpace(v)}
				if attr.Datatype != "" && attr.Datatype != rdf.XSDString {
					lit.Datatype = attr.Datatype
				}
				graph.MustAdd(rdf.T(iri, g.ont.AttributeIRI(attr), lit))
			}
		}
		for _, l := range in.Links {
			rel := findRelation(in.Class, l.Name)
			if rel == nil {
				return fmt.Errorf("instance: %s links through unknown relation %q", in.ID, l.Name)
			}
			for _, target := range l.Targets {
				graph.MustAdd(rdf.T(iri, g.ont.RelationIRI(rel), iriOf(target)))
			}
		}
		return nil
	}
	for _, in := range res.Instances() {
		if err := emit(in); err != nil {
			return nil, err
		}
	}
	return graph, nil
}

func findRelation(c *ontology.Class, name string) *ontology.Relation {
	for cur := c; cur != nil; cur = cur.Parent {
		for _, r := range cur.Relations {
			if strings.EqualFold(r.Name, name) {
				return r
			}
		}
	}
	return nil
}

// Serialize writes the result in the requested format. The whole
// document is staged in a reused buffer and handed to w as one write;
// SerializeChunked is the incremental alternative.
func (g *Generator) Serialize(w io.Writer, res *Result, format Format) error {
	var b *bytes.Buffer
	select {
	case b = <-spareBufs:
	default:
		b = new(bytes.Buffer)
	}
	err := g.serializeTo(b, res, format)
	if err == nil {
		_, err = w.Write(b.Bytes())
	}
	if b.Cap() <= maxPooledBuf {
		b.Reset()
		select {
		case spareBufs <- b:
		default:
		}
	}
	return err
}

// stringWriter is the serialization target: bytes.Buffer (Serialize's
// staging buffer) and ChunkedWriter (SerializeChunked and the
// eager path) both satisfy it. A writer appends a piece to
// AvailableBuffer() and passes the result to Write, so a piece that fits
// the spare capacity is formed in place; Grow reserves that capacity.
type stringWriter interface {
	io.Writer
	io.StringWriter
	AvailableBuffer() []byte
	Grow(n int)
}

// serializeTo is the one serializer behind Serialize and
// SerializeChunked: the same bytes reach w whichever writer it is.
func (g *Generator) serializeTo(w stringWriter, res *Result, format Format) error {
	r := format.row()
	if r == nil {
		return fmt.Errorf("instance: unknown format %d", int(format))
	}
	dw := r.writer(g)
	w.Grow(pieceRoom)
	walk, err := dw.head(w, res)
	if err != nil {
		return err
	}
	for _, in := range walk {
		if err := dw.instance(w, in); err != nil {
			return err
		}
	}
	return dw.tail(w, res)
}

// SourcedFrom is the provenance annotation property: it links an instance
// to the IDs of the data sources that contributed its values.
const SourcedFrom rdf.IRI = ontology.S2SNS + "sourcedFrom"

func (g *Generator) prefixes() rdf.PrefixMap {
	p := rdf.DefaultPrefixes()
	p["ont"] = string(g.ont.Base)
	if g.Provenance {
		p["s2s"] = ontology.S2SNS
	}
	return p
}
