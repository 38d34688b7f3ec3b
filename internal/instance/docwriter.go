package instance

// docwriter.go writes the two formats whose documents form instance by
// instance, JSON and XML, in pieces: a head that needs only the plan,
// the matched instances one call each, and a tail that needs the
// complete result. Each piece is appended straight into the target's
// spare capacity (AvailableBuffer) and handed back as one Write, the
// idiom rdfwriter.go uses, so no piece goes through reflection or fmt.
//
// The JSON pieces reproduce, byte for byte, what json.Encoder with
// SetIndent("", "  ") writes for the envelope {query, matched,
// related?, errors?, missing?} — HTML escaping, sorted map keys (the
// order of Attrs and Links), field order, omitempty and the trailing
// newline included.
// TestJSONPiecesMatchEncoder and FuzzDocWritersMatchReference pin it
// against encoding/json.

import (
	"encoding/json"
	"encoding/xml"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/s2sql"
)

// docWriter writes one format's document piece by piece. JSON
// (instances precede every tail field of the envelope) and XML (no tail
// fields at all) have one; text leads with result counts, and the RDF
// formats (rdfwriter.go) sort matched and related instances together by
// subject IRI, so they do not. serializeTo drives the pieces in one
// pass; the eager path (GenerateEager) interleaves them with extraction
// — same pieces, same bytes. An instance either fails before writing
// anything or is written whole.
type docWriter struct {
	head     func(g *Generator, w stringWriter, plan *s2sql.Plan) error
	instance func(g *Generator, w stringWriter, in *Instance, first bool) error
	tail     func(g *Generator, w stringWriter, res *Result) error
}

var docWriters = map[Format]docWriter{
	FormatJSON: {(*Generator).writeJSONHead, (*Generator).writeJSONInstance, (*Generator).writeJSONTail},
	FormatXML:  {(*Generator).writeXMLHead, (*Generator).writeXMLInstance, (*Generator).writeXMLTail},
}

// pieceRoom is the capacity a JSON or XML head reserves in its target
// before the first instance piece: a power of two larger than a piece,
// so a fresh buffer doubles through powers of two and a document of at
// most 1 MiB ends in a buffer Serialize can pool (maxPooledBuf). Sized
// by its first instance piece instead, a buffer doubles from that odd
// size and can overshoot: E7's 1.04 MB XML answer ended in 1.25 MiB, and
// every call regrew the dropped buffer.
const pieceRoom = 4 << 10

// writeJSONHead opens the envelope through the "matched" field
// separator; only the query string is needed, so an eager emitter can
// write it before extraction delivers anything.
func (g *Generator) writeJSONHead(w stringWriter, plan *s2sql.Plan) error {
	w.Grow(pieceRoom)
	b := append(w.AvailableBuffer(), "{\n  \"query\": "...)
	b = appendJSONString(b, plan.Query.String())
	b = append(b, ",\n  \"matched\": "...)
	_, err := w.Write(b)
	return err
}

// writeJSONInstance writes one element of an instance array. The
// array's opening bracket rides on the first element (closeJSONInstances
// writes "[]" if no element was ever written), so an eager emitter needs
// no lookahead.
func (g *Generator) writeJSONInstance(w stringWriter, in *Instance, first bool) error {
	b := w.AvailableBuffer()
	if first {
		b = append(b, "[\n    "...)
	} else {
		b = append(b, ",\n    "...)
	}
	_, err := w.Write(appendJSONInstance(b, in))
	return err
}

// appendJSONInstance appends the object json.MarshalIndent writes, with
// prefix "    " and indent "  ", for the instance's projection {id,
// class, values, links?, sources?}, where values and links are objects
// keyed by attribute ID and relation name. values is null for nil Attrs
// and holds null for a nil value list; links keeps only relations with
// a target and is omitted when none has one.
func appendJSONInstance(b []byte, in *Instance) []byte {
	b = append(b, "{\n      \"id\": "...)
	b = appendJSONString(b, in.ID)
	b = append(b, ",\n      \"class\": "...)
	b = appendJSONString(b, in.Class.Path())
	b = append(b, ",\n      \"values\": "...)
	if in.Attrs == nil {
		b = append(b, "null"...)
	} else {
		b = appendJSONObject(b, in.Attrs, func(b []byte, a Attr) ([]byte, bool) {
			b = append(appendJSONString(b, a.ID), ": "...)
			return appendJSONArray(b, a.Values, "        ", appendJSONString), true
		})
	}
	if slices.ContainsFunc(in.Links, func(l Link) bool { return len(l.Targets) > 0 }) {
		b = append(b, ",\n      \"links\": "...)
		b = appendJSONObject(b, in.Links, func(b []byte, l Link) ([]byte, bool) {
			if len(l.Targets) == 0 {
				return b, false
			}
			b = append(appendJSONString(b, l.Name), ": "...)
			return appendJSONArray(b, l.Targets, "        ", func(b []byte, t *Instance) []byte {
				return appendJSONString(b, t.ID)
			}), true
		})
	}
	if len(in.Sources) > 0 {
		b = append(b, ",\n      \"sources\": "...)
		b = appendJSONArray(b, in.Sources, "      ", appendJSONString)
	}
	return append(b, "\n    }"...)
}

// appendJSONObject appends an object at the instance's field depth,
// one member per entry in order: member appends the entry's key and
// value, or reports false to leave the entry out.
func appendJSONObject[E any](b []byte, es []E, member func([]byte, E) ([]byte, bool)) []byte {
	b = append(b, '{')
	sep := "\n        "
	for _, e := range es {
		if m, ok := member(append(b, sep...), e); ok {
			b, sep = m, ",\n        "
		}
	}
	if sep[0] != ',' {
		return append(b, '}')
	}
	return append(b, "\n      }"...)
}

// appendJSONArray appends an array whose closing bracket is indented by
// indent (its elements two spaces further): null for a nil slice, []
// for an empty one.
func appendJSONArray[E any](b []byte, es []E, indent string, elem func([]byte, E) []byte) []byte {
	if es == nil {
		return append(b, "null"...)
	}
	if len(es) == 0 {
		return append(b, "[]"...)
	}
	b = append(b, '[')
	for i, e := range es {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '\n')
		b = append(b, indent...)
		b = append(b, "  "...)
		b = elem(b, e)
	}
	b = append(b, '\n')
	b = append(b, indent...)
	return append(b, ']')
}

// appendJSONString appends s as encoding/json writes a string. Printable
// ASCII that needs no escape — HTML-safe escaping covers <, > and & — is
// copied as is; anything else goes through json.Marshal.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || strings.IndexByte(`"\<>&`, c) >= 0 {
			//lint:ignore errcheck json.Marshal cannot fail on a string
			data, _ := json.Marshal(s)
			return append(b, data...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// closeJSONInstances terminates an instance array of n written elements.
func closeJSONInstances(w stringWriter, n int) error {
	end := "\n  ]"
	if n == 0 {
		end = "[]"
	}
	_, err := w.WriteString(end)
	return err
}

// writeJSONStrings writes the envelope field name as a string array;
// like the encoder's omitempty, it writes nothing for an empty one.
func writeJSONStrings(w stringWriter, name string, ss []string) error {
	if len(ss) == 0 {
		return nil
	}
	b := append(w.AvailableBuffer(), ",\n  \""...)
	b = append(b, name...)
	b = append(b, "\": "...)
	b = appendJSONArray(b, ss, "  ", appendJSONString)
	_, err := w.Write(b)
	return err
}

// writeJSONTail closes the matched array (its elements already written)
// and emits every remaining envelope field; it needs the complete
// result, so the eager path writes it after the extraction run returns.
func (g *Generator) writeJSONTail(w stringWriter, res *Result) error {
	if err := closeJSONInstances(w, len(res.Matched)); err != nil {
		return err
	}
	if len(res.Related) > 0 {
		if _, err := w.WriteString(",\n  \"related\": "); err != nil {
			return err
		}
		for i, in := range res.Related {
			if err := g.writeJSONInstance(w, in, i == 0); err != nil {
				return err
			}
		}
		if err := closeJSONInstances(w, len(res.Related)); err != nil {
			return err
		}
	}
	errs := make([]string, len(res.Errors))
	for i, e := range res.Errors {
		errs[i] = e.Error()
	}
	if err := writeJSONStrings(w, "errors", errs); err != nil {
		return err
	}
	if err := writeJSONStrings(w, "missing", res.Missing); err != nil {
		return err
	}
	_, err := w.WriteString("\n}\n")
	return err
}

// writeXMLHead opens the plain XML view of §2.6: attribute IDs
// transform directly into an element hierarchy ("transforming the unique
// identifiers of the ontology attributes in a XML format is done
// naturally").
func (g *Generator) writeXMLHead(w stringWriter, _ *s2sql.Plan) error {
	w.Grow(pieceRoom)
	_, err := w.WriteString(xml.Header + "<s2s-result>\n")
	return err
}

// writeXMLTail writes the related instances and closes the document.
func (g *Generator) writeXMLTail(w stringWriter, res *Result) error {
	for _, in := range res.Related {
		if err := g.writeXMLInstance(w, in, false); err != nil {
			return err
		}
	}
	_, err := w.WriteString("</s2s-result>\n")
	return err
}

// writeXMLInstance writes one <instance> element: its values in
// attribute-ID order, trimmed, then its links in relation-name order.
// XML attribute values are Go-quoted; attribute and relation names and
// instance IDs are plain identifiers, which quoting leaves unchanged.
func (g *Generator) writeXMLInstance(w stringWriter, in *Instance, _ bool) error {
	b := append(w.AvailableBuffer(), "  <instance id="...)
	b = appendGoQuoted(b, in.ID)
	b = append(b, " class="...)
	b = appendGoQuoted(b, in.Class.Path())
	b = append(b, ">\n"...)
	for _, a := range in.Attrs {
		attr, ok := g.ont.Attribute(a.ID)
		if !ok {
			return fmt.Errorf("instance: unknown attribute %q", a.ID)
		}
		for _, v := range a.Values {
			b = append(b, "    <attribute id="...)
			b = appendGoQuoted(b, attr.ID())
			b = append(b, " name="...)
			b = appendGoQuoted(b, attr.Name)
			b = append(b, '>')
			b = appendXMLText(b, strings.TrimSpace(v))
			b = append(b, "</attribute>\n"...)
		}
	}
	for _, l := range in.Links {
		for _, t := range l.Targets {
			b = append(b, "    <relation name="...)
			b = appendGoQuoted(b, l.Name)
			b = append(b, " target="...)
			b = appendGoQuoted(b, t.ID)
			b = append(b, "/>\n"...)
		}
	}
	_, err := w.Write(append(b, "  </instance>\n"...))
	return err
}

// appendGoQuoted appends s as strconv.Quote writes it, copying it as is
// when quoting would leave it unchanged.
func appendGoQuoted(b []byte, s string) []byte {
	if !plainIRI(s) {
		return strconv.AppendQuote(b, s)
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
