package owl

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/rdf"
)

// xmlNamespace is the namespace the xml: prefix is bound to; Go's decoder
// reports xml:lang with this namespace.
const xmlNamespace = "http://www.w3.org/XML/1998/namespace"

// errWriter funnels every write through one error slot: after the first
// write error, the rest become no-ops and the error surfaces once at the
// end. It lets the serialization code below stay free of per-write error
// checks while writing incrementally (header, one subject at a time,
// footer) instead of staging the whole document — which is what makes
// the streaming pipeline's chunked OWL output possible.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) Write(p []byte) (int, error) {
	if ew.err != nil {
		return 0, ew.err
	}
	n, err := ew.w.Write(p)
	ew.err = err
	return n, err
}

func (ew *errWriter) WriteString(s string) {
	if ew.err != nil {
		return
	}
	_, ew.err = io.WriteString(ew.w, s)
}

// WriteRDFXML serializes the graph as RDF/XML, the syntax the paper's
// instance generator emits. Statements are grouped by subject; when a
// subject has exactly one rdf:type whose IRI can be abbreviated with the
// supplied prefixes, the typed-node form is used. Output is written
// incrementally — header, one subject element at a time, footer — so a
// chunked writer underneath can flush the document as it forms.
func WriteRDFXML(w io.Writer, g *rdf.Graph, prefixes rdf.PrefixMap) error {
	if prefixes == nil {
		prefixes = rdf.DefaultPrefixes()
	}
	if _, ok := prefixes["rdf"]; !ok {
		prefixes["rdf"] = rdf.RDFNS
	}

	ew := &errWriter{w: w}
	ew.WriteString(xml.Header)
	ew.WriteString("<rdf:RDF")
	labels := make([]string, 0, len(prefixes))
	for l := range prefixes {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Fprintf(ew, "\n    xmlns:%s=%q", l, prefixes[l])
	}
	ew.WriteString(">\n")

	triples := g.All()
	bySubject := make(map[string][]rdf.Triple)
	var order []string
	for _, t := range triples {
		k := t.Subject.Key()
		if _, ok := bySubject[k]; !ok {
			order = append(order, k)
		}
		bySubject[k] = append(bySubject[k], t)
	}
	sort.Strings(order)

	for _, subjKey := range order {
		if err := writeSubject(ew, bySubject[subjKey], prefixes); err != nil {
			return err
		}
	}
	ew.WriteString("</rdf:RDF>\n")
	return ew.err
}

// RDFXMLString returns the RDF/XML serialization of g.
func RDFXMLString(g *rdf.Graph, prefixes rdf.PrefixMap) string {
	var b strings.Builder
	//lint:ignore errcheck strings.Builder never fails, so WriteRDFXML cannot either
	_ = WriteRDFXML(&b, g, prefixes)
	return b.String()
}

// QName splits an IRI into a registered namespace prefix and local name.
// RDF/XML requires every property element to be a QName.
func QName(prefixes rdf.PrefixMap, iri rdf.IRI) (prefix, local string, ok bool) {
	s := string(iri)
	for label, ns := range prefixes {
		if strings.HasPrefix(s, ns) && len(s) > len(ns) {
			rest := s[len(ns):]
			if isXMLName(rest) {
				return label, rest, true
			}
		}
	}
	return "", "", false
}

func isXMLName(s string) bool {
	for i, r := range s {
		letter := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_'
		if i == 0 && !letter {
			return false
		}
		if !letter && !(r >= '0' && r <= '9') && r != '-' && r != '.' {
			return false
		}
	}
	return s != ""
}

func writeSubject(b *errWriter, ts []rdf.Triple, prefixes rdf.PrefixMap) error {
	subj := ts[0].Subject

	// Find a single abbreviable rdf:type to use as the element name.
	elem := "rdf:Description"
	var typeUsed *rdf.Triple
	var typeCount int
	for i, t := range ts {
		if t.Predicate.Key() == rdf.RDFType.Key() {
			typeCount++
			if iri, ok := t.Object.(rdf.IRI); ok && typeUsed == nil {
				if p, l, ok := QName(prefixes, iri); ok {
					elem = p + ":" + l
					typeUsed = &ts[i]
				}
			}
		}
	}
	if typeCount != 1 {
		// Ambiguous or absent type: fall back to rdf:Description for all.
		elem = "rdf:Description"
		typeUsed = nil
	}

	b.WriteString("  <" + elem)
	switch s := subj.(type) {
	case rdf.IRI:
		fmt.Fprintf(b, " rdf:about=%q", string(s))
	case rdf.BlankNode:
		fmt.Fprintf(b, " rdf:nodeID=%q", string(s))
	default:
		return fmt.Errorf("owl: rdf/xml subject %s has unsupported kind", subj)
	}
	b.WriteString(">\n")

	for _, t := range ts {
		if typeUsed != nil && t == *typeUsed {
			continue
		}
		predIRI, isIRI := t.Predicate.(rdf.IRI)
		if !isIRI {
			return fmt.Errorf("owl: predicate %s is not an IRI", t.Predicate)
		}
		p, l, ok := QName(prefixes, predIRI)
		if !ok {
			return fmt.Errorf("owl: predicate %s has no registered prefix; rdf/xml requires QName properties", t.Predicate)
		}
		prop := p + ":" + l
		switch o := t.Object.(type) {
		case rdf.IRI:
			fmt.Fprintf(b, "    <%s rdf:resource=%q/>\n", prop, string(o))
		case rdf.BlankNode:
			fmt.Fprintf(b, "    <%s rdf:nodeID=%q/>\n", prop, string(o))
		case rdf.Literal:
			b.WriteString("    <" + prop)
			if o.Lang != "" {
				fmt.Fprintf(b, " xml:lang=%q", o.Lang)
			} else if dt := o.EffectiveDatatype(); dt != rdf.XSDString {
				fmt.Fprintf(b, " rdf:datatype=%q", string(dt))
			}
			b.WriteString(">")
			if err := xml.EscapeText(b, []byte(o.Value)); err != nil {
				return err
			}
			b.WriteString("</" + prop + ">\n")
		}
	}
	b.WriteString("  </" + elem + ">\n")
	return nil
}

// ParseRDFXML reads the RDF/XML subset produced by WriteRDFXML plus common
// hand-written forms: typed node elements, rdf:about / rdf:nodeID subjects,
// property elements carrying rdf:resource, rdf:nodeID, rdf:datatype,
// xml:lang, literal text content, or a single nested node element.
func ParseRDFXML(r io.Reader) (*rdf.Graph, error) {
	g := rdf.NewGraph()
	dec := xml.NewDecoder(r)

	// Find the rdf:RDF root.
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return nil, fmt.Errorf("owl: rdf/xml document has no rdf:RDF root")
		}
		if err != nil {
			return nil, fmt.Errorf("owl: parsing rdf/xml: %w", err)
		}
		if se, ok := tok.(xml.StartElement); ok {
			if se.Name.Space != rdf.RDFNS || se.Name.Local != "RDF" {
				return nil, fmt.Errorf("owl: root element is {%s}%s, want rdf:RDF", se.Name.Space, se.Name.Local)
			}
			break
		}
	}

	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("owl: parsing rdf/xml: %w", err)
		}
		switch el := tok.(type) {
		case xml.StartElement:
			if _, err := parseNode(dec, el, g); err != nil {
				return nil, err
			}
		case xml.EndElement:
			return g, nil
		}
	}
	return g, nil
}

// parseNode parses a node element (a resource description) and returns the
// subject term.
func parseNode(dec *xml.Decoder, el xml.StartElement, g *rdf.Graph) (rdf.Term, error) {
	var subj rdf.Term
	for _, a := range el.Attr {
		if a.Name.Space != rdf.RDFNS {
			continue
		}
		switch a.Name.Local {
		case "about":
			subj = rdf.IRI(a.Value)
		case "ID":
			subj = rdf.IRI("#" + a.Value)
		case "nodeID":
			subj = rdf.BlankNode(a.Value)
		}
	}
	if subj == nil {
		subj = g.NewBlank()
	}

	// A typed node element asserts rdf:type.
	if el.Name.Space != rdf.RDFNS || el.Name.Local != "Description" {
		if err := g.Add(rdf.T(subj, rdf.RDFType, rdf.IRI(el.Name.Space+el.Name.Local))); err != nil {
			return nil, err
		}
	}

	// Non-rdf attributes are literal property abbreviations.
	for _, a := range el.Attr {
		switch a.Name.Space {
		case rdf.RDFNS, "xmlns", "", "xml", xmlNamespace:
			continue
		}
		t := rdf.T(subj, rdf.IRI(a.Name.Space+a.Name.Local), rdf.String(a.Value))
		if err := g.Add(t); err != nil {
			return nil, err
		}
	}

	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("owl: parsing rdf/xml node %s: %w", el.Name.Local, err)
		}
		switch inner := tok.(type) {
		case xml.StartElement:
			if err := parseProperty(dec, inner, subj, g); err != nil {
				return nil, err
			}
		case xml.EndElement:
			return subj, nil
		}
	}
}

// parseProperty parses one property element of the node with subject subj.
func parseProperty(dec *xml.Decoder, el xml.StartElement, subj rdf.Term, g *rdf.Graph) error {
	pred := rdf.IRI(el.Name.Space + el.Name.Local)
	var (
		resource *string
		nodeID   *string
		datatype string
		lang     string
	)
	for _, a := range el.Attr {
		switch {
		case a.Name.Space == rdf.RDFNS && a.Name.Local == "resource":
			v := a.Value
			resource = &v
		case a.Name.Space == rdf.RDFNS && a.Name.Local == "nodeID":
			v := a.Value
			nodeID = &v
		case a.Name.Space == rdf.RDFNS && a.Name.Local == "datatype":
			datatype = a.Value
		case (a.Name.Space == "xml" || a.Name.Space == xmlNamespace) && a.Name.Local == "lang":
			lang = a.Value
		}
	}

	if resource != nil || nodeID != nil {
		var obj rdf.Term
		if resource != nil {
			obj = rdf.IRI(*resource)
		} else {
			obj = rdf.BlankNode(*nodeID)
		}
		if err := g.Add(rdf.T(subj, pred, obj)); err != nil {
			return err
		}
		return dec.Skip()
	}

	// Otherwise: literal content or one nested node element.
	var text strings.Builder
	for {
		tok, err := dec.Token()
		if err != nil {
			return fmt.Errorf("owl: parsing rdf/xml property %s: %w", el.Name.Local, err)
		}
		switch inner := tok.(type) {
		case xml.CharData:
			text.Write(inner)
		case xml.StartElement:
			obj, err := parseNode(dec, inner, g)
			if err != nil {
				return err
			}
			if err := g.Add(rdf.T(subj, pred, obj)); err != nil {
				return err
			}
			// Consume up to the property end element.
			if err := dec.Skip(); err != nil {
				return err
			}
			return nil
		case xml.EndElement:
			lit := rdf.Literal{Value: text.String(), Datatype: rdf.IRI(datatype), Lang: lang}
			return g.Add(rdf.T(subj, pred, lit))
		}
	}
}
