package instance

// chunked.go is the incremental serialization tail: a bounded chunk
// buffer between the serializer and the transport, and the JSON
// document pieces. Serialize stages whole documents; SerializeChunked
// flushes the document in threshold-sized chunks as it forms, so peak
// serialization memory stays flat no matter how large the result is
// (E18 in bench_test.go asserts exactly that). Output bytes are
// identical between the two for every format — they share serializeTo.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"strconv"

	"repro/internal/obs"
	"repro/internal/s2sql"
)

// DefaultChunkSize is the flush threshold of a ChunkedWriter built with
// size <= 0.
const DefaultChunkSize = 32 * 1024

// ChunkStats describes one chunked serialization.
type ChunkStats struct {
	// Chunks is how many flushes reached the underlying writer.
	Chunks int
	// HighWater is the largest number of bytes the chunk buffer held —
	// the serialization path's peak buffered memory.
	HighWater int
	// Bytes is the total written.
	Bytes int64
}

// ChunkedWriter buffers writes and flushes the buffer to the underlying
// writer whenever it passes the threshold — bounded memory regardless
// of document size, and each flush is one Write the transport can hand
// to the wire (an http.Flusher-backed writer turns every chunk into a
// chunked-transfer frame). After a write error every later write is a
// no-op and Flush returns the first error.
type ChunkedWriter struct {
	w         io.Writer
	buf       bytes.Buffer
	threshold int
	stats     ChunkStats
	err       error
}

// NewChunkedWriter wraps w with a chunk buffer flushing at the given
// threshold (DefaultChunkSize when size <= 0).
func NewChunkedWriter(w io.Writer, size int) *ChunkedWriter {
	if size <= 0 {
		size = DefaultChunkSize
	}
	return &ChunkedWriter{w: w, threshold: size}
}

// Write buffers p, flushing when the buffer passes the threshold.
func (c *ChunkedWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	c.buf.Write(p)
	c.mark()
	if c.err = c.maybeFlush(); c.err != nil {
		return 0, c.err
	}
	return len(p), nil
}

// WriteString buffers s, flushing when the buffer passes the threshold.
func (c *ChunkedWriter) WriteString(s string) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	c.buf.WriteString(s)
	c.mark()
	if c.err = c.maybeFlush(); c.err != nil {
		return 0, c.err
	}
	return len(s), nil
}

func (c *ChunkedWriter) mark() {
	if l := c.buf.Len(); l > c.stats.HighWater {
		c.stats.HighWater = l
	}
}

func (c *ChunkedWriter) maybeFlush() error {
	if c.buf.Len() < c.threshold {
		return nil
	}
	return c.flush()
}

func (c *ChunkedWriter) flush() error {
	if c.buf.Len() == 0 {
		return nil
	}
	n, err := c.w.Write(c.buf.Bytes())
	c.stats.Chunks++
	c.stats.Bytes += int64(n)
	c.buf.Reset()
	return err
}

// Flush writes any buffered bytes through. Call it once after the last
// write; it also surfaces the first error any earlier write hit.
func (c *ChunkedWriter) Flush() error {
	if c.err != nil {
		return c.err
	}
	c.err = c.flush()
	return c.err
}

// Stats reports the writer's chunk statistics so far.
func (c *ChunkedWriter) Stats() ChunkStats { return c.stats }

// SerializeChunked writes the result in the requested format through a
// bounded chunk buffer: w receives DefaultChunkSize-sized writes as the
// document forms instead of one whole-document write. Output bytes are
// identical to Serialize. It runs under a "serialize" span (annotated
// with the chunk count) and the context's stage-latency metrics, like
// SerializeContext.
func (g *Generator) SerializeChunked(ctx context.Context, w io.Writer, res *Result, format Format) (ChunkStats, error) {
	_, span, done := obs.StartStage(ctx, "serialize")
	defer done()
	span.SetAttr("format", format.String())
	cw := NewChunkedWriter(w, 0)
	err := g.serializeTo(cw, res, format)
	if err == nil {
		err = cw.Flush()
	}
	span.SetAttr("chunks", strconv.Itoa(cw.Stats().Chunks))
	return cw.Stats(), err
}

// The JSON document pieces below reproduce, byte for byte, what
// json.Encoder with SetIndent("", "  ") writes for the envelope
// {query, matched, related?, errors?, missing?} — HTML
// escaping, sorted map keys, field order, and the trailing newline
// included (the goldens and the equivalence suites pin it) — one
// instance per marshal, so no piece needs the whole result in memory.

// writeJSONHead opens the envelope through the "matched" field
// separator; only the query string is needed, so an eager emitter can
// write it before extraction delivers anything.
func (g *Generator) writeJSONHead(w stringWriter, plan *s2sql.Plan) error {
	q, err := json.Marshal(plan.Query.String())
	if err != nil {
		return err
	}
	_, err = w.WriteString("{\n  \"query\": " + string(q) + ",\n  \"matched\": ")
	return err
}

// writeJSONInstance writes one element of an instance array. The
// array's opening bracket rides on the first element (closeJSONInstances
// writes "[]" if no element was ever written), so an eager emitter needs
// no lookahead.
func (g *Generator) writeJSONInstance(w stringWriter, in *Instance, first bool) error {
	sep := ",\n    "
	if first {
		sep = "[\n    "
	}
	if _, err := w.WriteString(sep); err != nil {
		return err
	}
	data, err := json.MarshalIndent(jsonInstanceOf(in), "    ", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
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
	sep := ",\n  \"" + name + "\": [\n    "
	for _, s := range ss {
		data, err := json.Marshal(s)
		if err != nil {
			return err
		}
		if _, err := w.WriteString(sep); err != nil {
			return err
		}
		if _, err := w.Write(data); err != nil {
			return err
		}
		sep = ",\n    "
	}
	_, err := w.WriteString("\n  ]")
	return err
}

// writeJSONTail closes the matched array (its elements already written)
// and emits every remaining envelope field; it needs the complete
// result, so the eager path writes it after the stream's tail arrives.
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
