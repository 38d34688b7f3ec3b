package transport

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"unicode/utf8"
)

// pieceRecorder records every write an envelopeWriter makes.
type pieceRecorder struct {
	*httptest.ResponseRecorder
	pieces [][]byte
}

func (p *pieceRecorder) Write(b []byte) (int, error) {
	p.pieces = append(p.pieces, append([]byte(nil), b...))
	return p.ResponseRecorder.Write(b)
}

// escapeInPieces writes doc to an envelopeWriter whose head is a bare
// opening quote, cut into writes at the lengths cuts gives (each taken
// modulo what is left), and returns every write the response received.
func escapeInPieces(doc, cuts []byte) (*pieceRecorder, error) {
	rec := &pieceRecorder{ResponseRecorder: httptest.NewRecorder()}
	env := &envelopeWriter{w: rec, head: []byte(`"`)}
	defer env.release()
	for _, c := range cuts {
		n := int(c) % (len(doc) + 1)
		if _, err := env.Write(doc[:n]); err != nil {
			return rec, err
		}
		doc = doc[n:]
	}
	if _, err := env.Write(doc); err != nil {
		return rec, err
	}
	return rec, env.finish(nil)
}

// FuzzEnvelopeEscape checks the envelope's string escaper against
// encoding/json on arbitrary bytes cut at arbitrary write boundaries:
// the response must be exactly json.Marshal of the document as a
// string, and no write may split a rune. pad shifts the document
// toward the end of the first scratch piece, so the piece boundary
// falls inside it too.
func FuzzEnvelopeEscape(f *testing.F) {
	f.Add([]byte("plain <owl:Thing rdf:about=\"a&b\"/>\n\t\\"), []byte{3, 7}, uint8(0))
	f.Add([]byte("bad \xff\xfe utf8 \xe2\x82 cut \xc3"), []byte{5}, uint8(2))
	f.Add([]byte("line \u2028 para \u2029 end"), []byte{6, 1, 1}, uint8(1))
	f.Add([]byte("\x00\x01\x08\x0c\x1f\x7f"), []byte{}, uint8(0))
	f.Add([]byte("split €uro and 𝄞 clef"), []byte{7, 1, 2}, uint8(3))
	f.Add([]byte("\x80\x80\x80\x80\x80\x80\x80\x80"), []byte{1, 2, 3}, uint8(4))
	f.Add([]byte("\xf0\x9d\x84\x9e\xf0\x9d\x84"), []byte{2, 3}, uint8(5))
	f.Fuzz(func(t *testing.T, doc, cuts []byte, pad uint8) {
		want, err := json.Marshal(string(doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, filler := range []int{0, envelopePiece - 1 - int(pad%8)} {
			prefix := strings.Repeat("a", filler)
			in := append([]byte(prefix), doc...)
			rec, err := escapeInPieces(in, cuts)
			if err != nil {
				t.Fatal(err)
			}
			wantAll := `"` + prefix + string(want[1:]) + "}\n"
			if got := rec.Body.String(); got != wantAll {
				t.Fatalf("filler %d: escaped %q\n got %q\nwant %q", filler, doc, got[1+filler:], wantAll[1+filler:])
			}
			for i, p := range rec.pieces {
				if len(p) > envelopePiece || !utf8.Valid(p) {
					t.Fatalf("filler %d: write %d of %d bytes splits a rune or exceeds the piece", filler, i, len(p))
				}
			}
		}
	})
}

// TestEnvelopePiecesKeepRunesWhole escapes a document many pieces long,
// written whole and in odd cuts, and checks that every write is at most
// one piece and holds whole runes only.
func TestEnvelopePiecesKeepRunesWhole(t *testing.T) {
	doc := []byte(strings.Repeat("é<€>𝄞\"x ", 20000))
	want, _ := json.Marshal(string(doc))
	for _, cuts := range [][]byte{nil, {1, 2, 3, 5, 7, 11, 13}} {
		rec, err := escapeInPieces(doc, cuts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Body.Bytes(), append(want, "}\n"...)) {
			t.Fatalf("cuts %v: escaped document differs from encoding/json", cuts)
		}
		if len(rec.pieces) < len(want)/envelopePiece {
			t.Errorf("cuts %v: %d writes for %d bytes", cuts, len(rec.pieces), len(want))
		}
		for i, p := range rec.pieces {
			if len(p) > envelopePiece || !utf8.Valid(p) {
				t.Fatalf("cuts %v: write %d of %d bytes splits a rune or exceeds the piece", cuts, i, len(p))
			}
		}
	}
}
