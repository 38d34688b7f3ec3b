package instance

// chunked_test.go covers the ChunkedWriter's flush edges: documents
// that never reach the threshold (empty result envelope, one small
// instance) must arrive as exactly one final-flush chunk with the high
// water equal to the document, and a single window larger than the
// threshold must flush mid-document with the high water bounded near
// the threshold, not the document size.

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/extract"
)

func TestChunkedWriterEmptyResult(t *testing.T) {
	w := newWorld(t)
	p := plan(t, w.ont, "SELECT product")
	res, err := w.gen.GenerateOpts(p, &extract.ResultSet{}, GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matched) != 0 {
		t.Fatalf("matched = %d, want 0", len(res.Matched))
	}
	var want, got bytes.Buffer
	if err := w.gen.Serialize(&want, res, FormatJSON); err != nil {
		t.Fatal(err)
	}
	stats, err := w.gen.SerializeChunked(&got, res, FormatJSON)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("chunked output diverges:\n%s", got.String())
	}
	if stats.Chunks != 1 {
		t.Errorf("Chunks = %d, want 1 (single final flush)", stats.Chunks)
	}
	if stats.Bytes != int64(got.Len()) {
		t.Errorf("Bytes = %d, want %d", stats.Bytes, got.Len())
	}
	if stats.HighWater != got.Len() {
		t.Errorf("HighWater = %d, want %d (whole envelope buffered until the final flush)", stats.HighWater, got.Len())
	}
}

func TestChunkedWriterSingleSmallInstance(t *testing.T) {
	w := newWorld(t)
	p := plan(t, w.ont, "SELECT product")
	rs := &extract.ResultSet{Fragments: []extract.Fragment{
		frag("thing.product.brand", "src", "Seiko"),
	}}
	res, err := w.gen.GenerateOpts(p, rs, GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matched) != 1 {
		t.Fatalf("matched = %d, want 1", len(res.Matched))
	}
	var got bytes.Buffer
	stats, err := w.gen.SerializeChunked(&got, res, FormatJSON)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() >= DefaultChunkSize {
		t.Fatalf("fixture document is %d bytes, want < default threshold %d", got.Len(), DefaultChunkSize)
	}
	if stats.Chunks != 1 {
		t.Errorf("Chunks = %d, want 1 (document below threshold)", stats.Chunks)
	}
	if stats.HighWater != got.Len() || stats.Bytes != int64(got.Len()) {
		t.Errorf("HighWater/Bytes = %d/%d, want %d/%d", stats.HighWater, stats.Bytes, got.Len(), got.Len())
	}
}

func TestChunkedWriterWindowExceedsThreshold(t *testing.T) {
	w := newWorld(t)
	p := plan(t, w.ont, "SELECT product")
	rs := &extract.ResultSet{Fragments: []extract.Fragment{
		frag("thing.product.brand", "src", strings.Repeat("x", 512)),
	}}
	res, err := w.gen.GenerateOpts(p, rs, GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const threshold = 64
	var want, got bytes.Buffer
	if err := w.gen.Serialize(&want, res, FormatJSON); err != nil {
		t.Fatal(err)
	}
	cw := NewChunkedWriter(&got, threshold)
	if err := w.gen.serializeTo(cw, res, FormatJSON); err != nil {
		t.Fatal(err)
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	stats := cw.Stats()
	if got.String() != want.String() {
		t.Error("chunked output diverges from whole-document serialization")
	}
	if stats.Chunks < 2 {
		t.Errorf("Chunks = %d, want >= 2 (single window larger than the threshold must flush mid-document)", stats.Chunks)
	}
	if stats.HighWater < threshold {
		t.Errorf("HighWater = %d, want >= threshold %d (the oversized write is buffered before the flush)", stats.HighWater, threshold)
	}
	if stats.HighWater >= got.Len() {
		t.Errorf("HighWater = %d, want < document size %d (memory stays bounded)", stats.HighWater, got.Len())
	}
	if stats.Bytes != int64(got.Len()) {
		t.Errorf("Bytes = %d, want %d", stats.Bytes, got.Len())
	}
}
