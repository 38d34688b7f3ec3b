package instance

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestMuxRoundTrip frames three queries the way the batch endpoint does
// — bodies in chunk-sized writes, per-query trailers, one failed query
// with a trailer but no body — and demultiplexes them back.
func TestMuxRoundTrip(t *testing.T) {
	var wire bytes.Buffer
	mux := NewMuxWriter(&wire)
	if err := mux.Header(3); err != nil {
		t.Fatal(err)
	}

	if err := mux.Begin(0); err != nil {
		t.Fatal(err)
	}
	w0 := mux.Stream(0)
	for _, chunk := range []string{`{"query": "SELECT product",`, "\n", `"matched": []}`} {
		if _, err := w0.Write([]byte(chunk)); err != nil {
			t.Fatal(err)
		}
	}
	if err := mux.Trailer(0, map[string]string{"matched": "0", "errors": "0"}); err != nil {
		t.Fatal(err)
	}

	// Query 1 failed before serialization: trailer only, message with
	// every character class the line framing must survive.
	if err := mux.Trailer(1, map[string]string{"error": "parse error: near \"=c 9 9\"\nline 2"}); err != nil {
		t.Fatal(err)
	}

	if err := mux.Begin(2); err != nil {
		t.Fatal(err)
	}
	if _, err := mux.Stream(2).Write([]byte("<s2s-result>\n</s2s-result>\n")); err != nil {
		t.Fatal(err)
	}
	if err := mux.Trailer(2, map[string]string{"matched": "4"}); err != nil {
		t.Fatal(err)
	}

	results, err := DemuxBatch(&wire, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3", len(results))
	}
	if got := string(results[0].Body); got != `{"query": "SELECT product",`+"\n"+`"matched": []}` {
		t.Errorf("query 0 body = %q", got)
	}
	if !results[0].Began || results[0].Trailer["matched"] != "0" || results[0].Trailer["errors"] != "0" {
		t.Errorf("query 0 = %+v", results[0])
	}
	if results[1].Began || len(results[1].Body) != 0 {
		t.Errorf("failed query has a body: %+v", results[1])
	}
	if got := results[1].Trailer["error"]; got != "parse error: near \"=c 9 9\"\nline 2" {
		t.Errorf("query 1 error round-trip = %q", got)
	}
	if string(results[2].Body) != "<s2s-result>\n</s2s-result>\n" || results[2].Trailer["matched"] != "4" {
		t.Errorf("query 2 = %+v", results[2])
	}
}

func TestMuxZeroLengthWriteEmitsNoFrame(t *testing.T) {
	var wire bytes.Buffer
	mux := NewMuxWriter(&wire)
	if _, err := mux.Stream(0).Write(nil); err != nil {
		t.Fatal(err)
	}
	if wire.Len() != 0 {
		t.Errorf("zero-length write framed %q", wire.String())
	}
}

func TestDemuxMalformed(t *testing.T) {
	cases := map[string]string{
		"unknown frame":   "=x 0\n",
		"bad index":       "=b zero\n",
		"bad chunk size":  "=c 0 nope\n",
		"short chunk":     "=c 0 10\nabc",
		"negative index":  "=b -1\n",
		"bare line":       "hello\n",
		"trailer no k=v":  "=t 0 junk\n",
		"trailer bad esc": "=t 0 error=%zz\n",
		// A declared size must not allocate ahead of the bytes that
		// arrive, and an index must stay below the query count: a hostile
		// or corrupted response cannot panic the client or make it grow
		// its result slice to the frame's say-so.
		"huge chunk size":    "=c 0 9223372036854775807\n",
		"index past queries": "=b 2000000000\n",
		"header past count":  "=n 5\n",
		"chunk past queries": "=c 4 1\nx",
	}
	for name, wire := range cases {
		if _, err := DemuxBatch(strings.NewReader(wire), 4); err == nil {
			t.Errorf("%s: demux accepted %q", name, wire)
		}
	}
}

// endlessLine is a frame line that never ends. It fails the test once
// more than limit bytes have been read from it.
type endlessLine struct {
	t     *testing.T
	read  int
	limit int
}

func (r *endlessLine) Read(p []byte) (int, error) {
	r.read += len(p)
	if r.read > r.limit {
		r.t.Fatalf("demux read %d bytes of an unterminated frame line", r.read)
	}
	for i := range p {
		p[i] = 'x'
	}
	return len(p), nil
}

// TestDemuxBoundsFrameLines: a batch body whose first line never ends
// is refused after at most maxFrameLine bytes (plus one read buffer),
// while a trailer echoing a 1 MiB error — tripled by query-escaping —
// still demultiplexes.
func TestDemuxBoundsFrameLines(t *testing.T) {
	r := &endlessLine{t: t, limit: maxFrameLine + 64<<10}
	if _, err := DemuxBatch(io.MultiReader(strings.NewReader("=t 0 error="), r), 1); err == nil {
		t.Error("demux accepted an unterminated frame line")
	}

	msg := strings.Repeat("\n", 1<<20)
	var wire bytes.Buffer
	if err := NewMuxWriter(&wire).Trailer(0, map[string]string{"error": msg}); err != nil {
		t.Fatal(err)
	}
	got, err := DemuxBatch(&wire, 1)
	if err != nil {
		t.Fatalf("a %d-byte trailer line was refused: %v", wire.Len(), err)
	}
	if got[0].Trailer["error"] != msg {
		t.Error("the long trailer did not round-trip")
	}
}

// FuzzDemuxBatch: arbitrary bytes never panic the demultiplexer nor
// yield more than n results, and any stream MuxWriter writes — n
// queries, a body split into chunks at arbitrary points, a trailer with
// an arbitrary message — demultiplexes back to exactly what was written.
func FuzzDemuxBatch(f *testing.F) {
	f.Add([]byte("=n 2\n=b 0\n=c 0 3\nabc=t 0 matched=1\n"), uint8(2), []byte(`{"a": 1}`), "msg", uint8(3))
	f.Add([]byte("=c 0 9223372036854775807\n"), uint8(1), []byte{}, "", uint8(0))
	f.Add([]byte("=b 2000000000\n"), uint8(0), []byte("\n=c 0 9 9\n"), "err=%zz\n+ &", uint8(1))
	f.Add([]byte("=t 0 error=%zz\n"), uint8(4), []byte("<x/>"), "parse error: near \"=c 9 9\"\nline 2", uint8(255))
	f.Fuzz(func(t *testing.T, raw []byte, n uint8, body []byte, msg string, split uint8) {
		if got, err := DemuxBatch(bytes.NewReader(raw), int(n)); err == nil && len(got) > int(n) {
			t.Fatalf("demux returned %d results for %d queries", len(got), n)
		}

		queries := int(n%8) + 1
		var wire bytes.Buffer
		mux := NewMuxWriter(&wire)
		if err := mux.Header(queries); err != nil {
			t.Fatal(err)
		}
		step := int(split) + 1
		for i := 0; i < queries; i++ {
			if err := mux.Begin(i); err != nil {
				t.Fatal(err)
			}
			for rest := body; len(rest) > 0; {
				k := min(step, len(rest))
				if _, err := mux.Stream(i).Write(rest[:k]); err != nil {
					t.Fatal(err)
				}
				rest = rest[k:]
			}
			if err := mux.Trailer(i, map[string]string{"error": msg, "matched": "1"}); err != nil {
				t.Fatal(err)
			}
		}
		got, err := DemuxBatch(&wire, queries)
		if err != nil {
			t.Fatalf("demux of a MuxWriter stream: %v", err)
		}
		if len(got) != queries {
			t.Fatalf("results = %d, want %d", len(got), queries)
		}
		for i, r := range got {
			if !r.Began || !bytes.Equal(r.Body, body) || r.Trailer["error"] != msg || r.Trailer["matched"] != "1" {
				t.Fatalf("query %d = %+v, want body %q and error %q", i, r, body, msg)
			}
		}
	})
}
