package instance

// chunked.go is the incremental serialization tail: a bounded chunk
// buffer between the serializer and the transport. Serialize stages
// whole documents; SerializeChunked flushes the document in
// threshold-sized chunks as it forms, so peak serialization memory
// stays flat no matter how large the result is (E18 in bench_test.go
// asserts exactly that). Both drive the format's one docWriter through
// serializeTo, which forms each piece in the chunk buffer itself, so
// their bytes are identical for every format.

import (
	"bytes"
	"io"
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

// AvailableBuffer returns the chunk buffer's spare capacity, as
// bytes.Buffer.AvailableBuffer does: a piece appended to it and passed
// to Write is formed in place.
func (c *ChunkedWriter) AvailableBuffer() []byte { return c.buf.AvailableBuffer() }

// Grow makes room for n more bytes in the chunk buffer, as
// bytes.Buffer.Grow does.
func (c *ChunkedWriter) Grow(n int) { c.buf.Grow(n) }

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
// identical to Serialize.
func (g *Generator) SerializeChunked(w io.Writer, res *Result, format Format) (ChunkStats, error) {
	cw := NewChunkedWriter(w, 0)
	err := g.serializeTo(cw, res, format)
	if err == nil {
		err = cw.Flush()
	}
	return cw.Stats(), err
}
