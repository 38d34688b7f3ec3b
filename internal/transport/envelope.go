package transport

// envelope.go writes the JSON envelope of /query and /cluster/query
// around the answer's staged document without copying the document
// again: the head is built with encoding/json once the result is known,
// the document is escaped as an encoding/json string straight onto the
// response in bounded pieces, and the fields after body follow.

import (
	"encoding/json"
	"net/http"
	"sync"
	"unicode/utf8"

	"repro/internal/instance"
)

// envelopePiece bounds one write of escaped output onto the response.
const envelopePiece = 32 << 10

// piecePool holds the reused scratch pieces of envelopeWriter.
var piecePool = sync.Pool{New: func() any {
	b := make([]byte, 0, envelopePiece)
	return &b
}}

// Field is a JSON member an envelope route appends after body (after
// trace, when the request asks for it). Name is written as is; Value is
// marshaled once the answer is complete.
type Field struct {
	Name  string
	Value any
}

// envelopeWriter is the sink writer of an envelope route: it sends
// head on the first write, then escapes every byte written to it as
// the contents of a JSON string. A UTF-8 sequence split across writes
// is carried to the next one, so a rune never straddles two pieces.
type envelopeWriter struct {
	w http.ResponseWriter
	// head is the envelope up to body's opening quote; nil until the
	// result is known.
	head    []byte
	started bool
	piece   *[]byte
	buf     []byte
	carry   [utf8.UTFMax]byte
	ncarry  int
	err     error
}

// begin builds the envelope head from the generated result: the
// QueryResponse fields before body, exactly as encoding/json orders
// and encodes them.
func (e *envelopeWriter) begin(res *instance.Result, format instance.Format) error {
	resp := QueryResponse{
		Query:   res.Plan.Query.String(),
		Format:  format.String(),
		Matched: len(res.Matched),
		Related: len(res.Related),
		Missing: res.Missing,
	}
	for _, err := range res.Errors {
		resp.Errors = append(resp.Errors, err.Error())
	}
	head, err := json.Marshal(resp)
	if err != nil {
		return err
	}
	// An empty Body encodes last as `"body":""}`; keep its opening quote.
	e.head = head[:len(head)-len(`"}`)]
	return nil
}

// start sends the response headers and the envelope head.
func (e *envelopeWriter) start() {
	e.started = true
	e.w.Header().Set("Content-Type", "application/json")
	e.piece = piecePool.Get().(*[]byte)
	e.buf = (*e.piece)[:0]
	e.put(e.head)
}

// Write escapes p onto the response and flushes it, keeping back only a
// trailing incomplete UTF-8 sequence.
func (e *envelopeWriter) Write(p []byte) (int, error) {
	n := len(p)
	if n == 0 || e.err != nil {
		return 0, e.err
	}
	if !e.started {
		e.start()
	}
	if e.ncarry > 0 {
		// Finish the carried sequence with the first bytes of p; what is
		// consumed beyond the carry is consumed from p.
		var tmp [2 * utf8.UTFMax]byte
		l := copy(tmp[:], e.carry[:e.ncarry])
		l += copy(tmp[l:], p)
		used := e.escape(tmp[:l], false)
		if used < e.ncarry {
			// Still incomplete: p was too short to finish it and is all in tmp.
			e.ncarry = copy(e.carry[:], tmp[used:l])
			return n, e.err
		}
		p = p[used-e.ncarry:]
		e.ncarry = 0
	}
	used := e.escape(p, false)
	e.ncarry = copy(e.carry[:], p[used:])
	e.flush()
	return n, e.err
}

// finish closes the envelope: any carried bytes, body's closing quote,
// the tail fields, and `}` with encoding/json's newline.
func (e *envelopeWriter) finish(tail []Field) error {
	if !e.started {
		e.start()
	}
	e.escape(e.carry[:e.ncarry], true)
	e.ncarry = 0
	e.put([]byte{'"'})
	for _, f := range tail {
		v, err := json.Marshal(f.Value)
		if err != nil {
			return err
		}
		e.put([]byte(`,"` + f.Name + `":`))
		e.put(v)
	}
	e.put([]byte("}\n"))
	e.flush()
	return e.err
}

// release returns the scratch piece to the pool.
func (e *envelopeWriter) release() {
	if e.piece != nil {
		*e.piece = e.buf[:0]
		piecePool.Put(e.piece)
		e.piece, e.buf = nil, nil
	}
}

func (e *envelopeWriter) flush() {
	if len(e.buf) > 0 && e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// put appends valid UTF-8 to the piece, flushing full pieces at rune
// boundaries.
func (e *envelopeWriter) put(p []byte) {
	for len(p) > 0 && e.err == nil {
		room := cap(e.buf) - len(e.buf)
		if len(p) <= room {
			e.buf = append(e.buf, p...)
			return
		}
		k := runeCut(p, room)
		e.buf = append(e.buf, p[:k]...)
		p = p[k:]
		e.flush()
	}
}

// runeCut returns the largest k <= n (n < len(p)) at which p splits
// without splitting a rune. Where no rune starts in p[n-3:n+1], p is
// not UTF-8 there and any cut is as good: n.
func runeCut(p []byte, n int) int {
	for k := n; k >= 0 && k > n-utf8.UTFMax; k-- {
		if utf8.RuneStart(p[k]) {
			return k
		}
	}
	return n
}

// escape writes src as the contents of a JSON string, as encoding/json
// escapes a string: `"`, `\` and control bytes, HTML-safe `<`, `>` and
// `&`, U+2028 and U+2029, and each byte of invalid UTF-8 as \ufffd.
// Unless final it stops before a trailing incomplete UTF-8 sequence and
// reports how many bytes it consumed.
func (e *envelopeWriter) escape(src []byte, final bool) int {
	const hex = "0123456789abcdef"
	start, i := 0, 0
	for i < len(src) {
		b := src[i]
		if b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			e.put(src[start:i])
			e.reserve()
			switch b {
			case '\\', '"':
				e.buf = append(e.buf, '\\', b)
			case '\b':
				e.buf = append(e.buf, '\\', 'b')
			case '\f':
				e.buf = append(e.buf, '\\', 'f')
			case '\n':
				e.buf = append(e.buf, '\\', 'n')
			case '\r':
				e.buf = append(e.buf, '\\', 'r')
			case '\t':
				e.buf = append(e.buf, '\\', 't')
			default:
				e.buf = append(e.buf, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xf])
			}
			i++
			start = i
			continue
		}
		if !final && !utf8.FullRune(src[i:]) {
			break
		}
		c, size := utf8.DecodeRune(src[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			e.put(src[start:i])
			e.reserve()
			e.buf = append(e.buf, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			e.put(src[start:i])
			e.reserve()
			e.buf = append(e.buf, '\\', 'u', '2', '0', '2', hex[c&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	e.put(src[start:i])
	return i
}

// reserve makes room in the piece for one escape sequence.
func (e *envelopeWriter) reserve() {
	if cap(e.buf)-len(e.buf) < len(`\u0000`) {
		e.flush()
	}
}

// htmlSafe marks the ASCII bytes a JSON string carries unescaped under
// encoding/json's default HTML-safe escaping.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()
