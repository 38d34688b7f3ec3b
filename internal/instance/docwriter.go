package instance

// docwriter.go holds docWriter, the shape of every format's writer,
// and the JSON, XML and text writers (rdfwriter.go holds RDF's). Each
// piece is appended into the target's spare capacity (AvailableBuffer)
// and handed back as one Write, never through reflection or fmt.
//
// The JSON pieces reproduce, byte for byte, what json.Encoder with
// SetIndent("", "  ") writes for the envelope {query, matched,
// related?, errors?, missing?} — HTML escaping, sorted map keys (the
// order of Attrs and Links), field order, omitempty and the trailing
// newline included. TestJSONPiecesMatchEncoder and
// FuzzDocWritersMatchReference pin it against encoding/json.

import (
	"encoding/json"
	"encoding/xml"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// docWriter writes one answer in one format: head writes what precedes
// the instances and returns the walk, instance writes one of them, and
// tail writes the rest. serializeTo and GenerateEager drive the pieces;
// an instance fails before writing anything or is written whole.
type docWriter interface {
	head(w stringWriter, res *Result) ([]*Instance, error)
	instance(w stringWriter, in *Instance) error
	tail(w stringWriter, res *Result) error
}

// jsonDoc counts the elements written into the open instance array.
type jsonDoc struct{ n int }

// head opens the envelope through the "matched" field separator; it
// needs only the query string, so it can precede extraction.
func (d *jsonDoc) head(w stringWriter, res *Result) ([]*Instance, error) {
	b := append(w.AvailableBuffer(), "{\n  \"query\": "...)
	b = appendJSONString(b, res.Plan.Query.String())
	b = append(b, ",\n  \"matched\": "...)
	_, err := w.Write(b)
	return res.Matched, err
}

// instance writes one element of an instance array. The opening bracket
// rides on the first element (closeArray writes "[]" if there was
// none), so an eager emitter needs no lookahead.
func (d *jsonDoc) instance(w stringWriter, in *Instance) error {
	sep := ",\n    "
	if d.n == 0 {
		sep = "[\n    "
	}
	d.n++
	_, err := w.Write(appendJSONInstance(append(w.AvailableBuffer(), sep...), in))
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

// closeArray terminates the open instance array.
func (d *jsonDoc) closeArray(w stringWriter) error {
	end := "\n  ]"
	if d.n == 0 {
		end = "[]"
	}
	d.n = 0
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

// tail closes the matched array and emits every remaining envelope
// field; it needs the complete result, so the eager path writes it
// after the extraction run returns.
func (d *jsonDoc) tail(w stringWriter, res *Result) error {
	if err := d.closeArray(w); err != nil {
		return err
	}
	if len(res.Related) > 0 {
		if _, err := w.WriteString(",\n  \"related\": "); err != nil {
			return err
		}
		for _, in := range res.Related {
			if err := d.instance(w, in); err != nil {
				return err
			}
		}
		if err := d.closeArray(w); err != nil {
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

// xmlDoc writes the plain XML view of §2.6: attribute IDs transform
// directly into an element hierarchy ("transforming the unique
// identifiers of the ontology attributes in a XML format is done
// naturally").
type xmlDoc struct{ g *Generator }

func (d xmlDoc) head(w stringWriter, res *Result) ([]*Instance, error) {
	_, err := w.WriteString(xml.Header + "<s2s-result>\n")
	return res.Matched, err
}

// instance writes one <instance> element: its values in attribute-ID
// order, trimmed, then its links in relation-name order. XML attribute
// values are Go-quoted; attribute and relation names and instance IDs
// are plain identifiers, which quoting leaves unchanged.
func (d xmlDoc) instance(w stringWriter, in *Instance) error {
	b := append(w.AvailableBuffer(), "  <instance id="...)
	b = appendGoQuoted(b, in.ID)
	b = append(b, " class="...)
	b = appendGoQuoted(b, in.Class.Path())
	b = append(b, ">\n"...)
	for _, a := range in.Attrs {
		attr, ok := d.g.ont.Attribute(a.ID)
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

// tail writes the related instances and closes the document.
func (d xmlDoc) tail(w stringWriter, res *Result) error {
	for _, in := range res.Related {
		if err := d.instance(w, in); err != nil {
			return err
		}
	}
	_, err := w.WriteString("</s2s-result>\n")
	return err
}

// textDoc writes the plain-text view: a head with the query and the
// counts, one block per instance, then the error and unmapped lines.
type textDoc struct{}

func (textDoc) head(w stringWriter, res *Result) ([]*Instance, error) {
	b := appendAll(w.AvailableBuffer(), "query: ", res.Plan.Query.String(), "\nmatched: ")
	b = strconv.AppendInt(b, int64(len(res.Matched)), 10)
	b = strconv.AppendInt(append(b, ", related: "...), int64(len(res.Related)), 10)
	b = strconv.AppendInt(append(b, ", errors: "...), int64(len(res.Errors)), 10)
	_, err := w.Write(append(b, '\n'))
	return res.Matched, err
}

func (textDoc) instance(w stringWriter, in *Instance) error {
	b := appendAll(w.AvailableBuffer(), "- ", in.ID, " (", in.Class.Path(), ") from ")
	for i, src := range in.Sources {
		b = appendSep(b, i, ", ", src)
	}
	for _, a := range in.Attrs {
		b = appendAll(b, "\n    ", a.ID, " = ")
		for i, v := range a.Values {
			b = appendSep(b, i, " | ", v)
		}
	}
	for _, l := range in.Links {
		b = appendAll(b, "\n    ", l.Name, " -> ")
		for i, t := range l.Targets {
			b = appendSep(b, i, ", ", t.ID)
		}
	}
	_, err := w.Write(append(b, '\n'))
	return err
}

func (d textDoc) tail(w stringWriter, res *Result) error {
	for _, in := range res.Related {
		if err := d.instance(w, in); err != nil {
			return err
		}
	}
	b := w.AvailableBuffer()
	for _, e := range res.Errors {
		b = appendAll(b, "! ", e.Error(), "\n")
	}
	for _, m := range res.Missing {
		b = appendAll(b, "? unmapped attribute ", m, "\n")
	}
	_, err := w.Write(b)
	return err
}

// appendSep appends s as element i of a sep-separated list.
func appendSep(b []byte, i int, sep, s string) []byte {
	if i > 0 {
		b = append(b, sep...)
	}
	return append(b, s...)
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
