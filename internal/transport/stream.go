package transport

// stream.go is the streaming pipeline's wire surface: the
// /query/stream endpoint serializes a query answer straight onto the
// connection in chunked transfer encoding as the chunk buffer fills,
// and the matching client decodes the body incrementally into the
// caller's writer. Because the status line and headers are long gone
// when a mid-stream failure hits, completion is signaled in HTTP
// trailers: a response whose trailers lack X-S2s-Stream-Complete is a
// truncated stream, and the client says so instead of handing the
// caller a silently short body. See docs/STREAMING.md.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/instance"
	"repro/internal/obs"
)

// Streaming response headers and trailers of GET /query/stream.
const (
	// StreamMatchedHeader carries the matched-instance count; in barrier
	// mode it is sent before the body (generation completes before
	// serialization starts, so the counts are known up front).
	StreamMatchedHeader = "X-S2s-Matched"
	// StreamRelatedHeader carries the related-instance count.
	StreamRelatedHeader = "X-S2s-Related"
	// StreamCompleteTrailer is "true" when the whole body was written.
	// Its absence from the trailers means the stream was cut mid-body.
	StreamCompleteTrailer = "X-S2s-Stream-Complete"
	// StreamErrorsTrailer carries the number of per-source extraction
	// errors the answer absorbed (the error detail rides inside the body
	// for formats that carry it, e.g. the JSON errors array).
	StreamErrorsTrailer = "X-S2s-Stream-Errors"
	// StreamErrorTrailer carries the message of a mid-stream
	// serialization failure; when present the body is truncated.
	StreamErrorTrailer = "X-S2s-Stream-Error"
	// StreamModeHeader reports which emission path produced the body:
	// StreamModeEager when the planner proved the query merge-free and
	// the body streamed barrier-free (instance counts then arrive as
	// trailers, since the body starts before generation finishes), or
	// StreamModeBarrier otherwise (counts in the pre-body headers, as
	// before). The bytes are identical either way.
	StreamModeHeader = "X-S2s-Stream-Mode"
)

// StreamModeHeader values.
const (
	StreamModeEager   = "eager"
	StreamModeBarrier = "barrier"
)

// StreamResult summarizes one streamed query exchange on the client.
type StreamResult struct {
	// Matched and Related are the instance counts — from the pre-body
	// headers in barrier mode, from the trailers in eager mode.
	Matched int
	Related int
	// SourceErrors is the extraction-error count from the trailers.
	SourceErrors int
	// Bytes is how many body bytes were copied to the caller's writer.
	Bytes int64
	// Mode is the server's StreamModeHeader value ("barrier" when the
	// server predates the header).
	Mode string
}

// flushWriter forwards every write to the response and flushes it,
// so each chunk-buffer flush becomes one chunked-transfer frame on the
// wire instead of sitting in the server's response buffer.
type flushWriter struct {
	w http.ResponseWriter
	f http.Flusher // nil when the response cannot flush
}

func newFlushWriter(w http.ResponseWriter) *flushWriter {
	f, _ := w.(http.Flusher)
	return &flushWriter{w: w, f: f}
}

func (fw *flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if fw.f != nil {
		fw.f.Flush()
	}
	return n, err
}

// handleQueryStream answers GET /query/stream?q=...&format=...: the
// serialized document goes out as a chunked body with completion
// signaled in trailers. Middleware.Answer chooses the emission mode and
// reports it through the sink's Begin callback, before the first body
// byte: a merge-free query in an instance-incremental format streams
// eagerly (counts in the trailers); every other query is materialized
// first (counts in the headers) and leaves in chunks.
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		Error(w, http.StatusMethodNotAllowed, fmt.Errorf("transport: %s not allowed", r.Method))
		return
	}
	if !s.AcquireQuerySlot(w) {
		return
	}
	defer s.ReleaseQuerySlot()
	req, format, ok := DecodeQueryRequest(w, r)
	if !ok {
		return
	}
	ctx, root := BeginRequest(s.mw, w, r, "http_query_stream")

	fw := newFlushWriter(w)
	begun, eager := false, false
	begin := func(res *instance.Result) error {
		begun, eager = true, res == nil
		h := w.Header()
		h.Set("Content-Type", format.MediaType())
		trailers := []string{StreamCompleteTrailer, StreamErrorsTrailer, StreamErrorTrailer}
		if eager {
			// The body starts before generation finishes, so the counts
			// ride in the trailers.
			h.Set(StreamModeHeader, StreamModeEager)
			trailers = append(trailers, StreamMatchedHeader, StreamRelatedHeader)
		} else {
			h.Set(StreamModeHeader, StreamModeBarrier)
			h.Set(StreamMatchedHeader, strconv.Itoa(len(res.Matched)))
			h.Set(StreamRelatedHeader, strconv.Itoa(len(res.Related)))
		}
		// Announce the trailers before the first body byte; their values
		// are set after the body, which is the point: they report how it
		// ended.
		h.Set("Trailer", strings.Join(trailers, ", "))
		if fw.f != nil {
			// Commit the header block and the chunked framing before
			// serialization. A zero-instance result can serialize to zero
			// bytes (NTriples has no envelope); an uncommitted zero-byte
			// response would go out with Content-Length: 0, and net/http
			// silently drops announced trailers from such a response — the
			// client would then read a completed stream as truncated.
			fw.f.Flush()
		}
		return nil
	}
	res, _, err := s.mw.Answer(ctx, core.Request{Query: req.Query, Format: format, Stream: true}, &core.Sink{W: fw, Begin: begin})
	EndRequest(root, err)
	switch {
	case err != nil && !begun:
		// Pre-body failure: the response is still uncommitted, so it
		// fails with a regular status.
		Error(w, http.StatusBadRequest, err)
	case err != nil:
		// Mid-stream failure: part of the body is on the wire. Terminate
		// the chunked response with the error in a trailer instead of
		// leaving a silently truncated document.
		w.Header().Set(StreamErrorTrailer, err.Error())
	default:
		w.Header().Set(StreamCompleteTrailer, "true")
		w.Header().Set(StreamErrorsTrailer, strconv.Itoa(len(res.Errors)))
		if eager {
			w.Header().Set(StreamMatchedHeader, strconv.Itoa(len(res.Matched)))
			w.Header().Set(StreamRelatedHeader, strconv.Itoa(len(res.Related)))
		}
	}
}

// QueryStream runs an S2SQL query against the endpoint's streaming
// route, copying the serialized body to w as it arrives. After the
// body, the response trailers are checked: a missing completion
// trailer (server died mid-stream, connection cut) or an explicit
// error trailer turns into an error, so a truncated document is never
// mistaken for an answer. The bytes already copied to w stay there —
// the caller decides whether partial output is salvageable.
func (c *Client) QueryStream(ctx context.Context, query, format string, w io.Writer) (*StreamResult, error) {
	v := url.Values{"q": {query}}
	if format != "" {
		v.Set("format", format)
	}
	path := "/query/stream?" + v.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, fmt.Errorf("transport: building request: %w", err)
	}
	if span := obs.SpanFromContext(ctx); span != nil {
		req.Header.Set(TraceIDHeader, span.TraceID)
		req.Header.Set(SpanIDHeader, span.ID)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("transport: calling GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeResponse(resp, http.MethodGet, "/query/stream", nil)
	}

	out := &StreamResult{Mode: resp.Header.Get(StreamModeHeader)}
	if out.Mode == "" {
		out.Mode = StreamModeBarrier
	}
	// A bad count is reported once the body is through: a failed copy
	// or an error trailer says more about the exchange.
	n := counts{where: "stream"}
	if out.Mode != StreamModeEager {
		out.Matched = n.read(StreamMatchedHeader, resp.Header.Get(StreamMatchedHeader))
		out.Related = n.read(StreamRelatedHeader, resp.Header.Get(StreamRelatedHeader))
	}

	// Copy the body through as it arrives; trailers are populated only
	// once the body reaches EOF.
	out.Bytes, err = io.Copy(w, resp.Body)
	if err != nil {
		return out, fmt.Errorf("transport: streaming body: %w", err)
	}
	if msg := resp.Trailer.Get(StreamErrorTrailer); msg != "" {
		return out, fmt.Errorf("transport: stream failed mid-body after %d bytes: %s", out.Bytes, msg)
	}
	if resp.Trailer.Get(StreamCompleteTrailer) != "true" {
		return out, fmt.Errorf("transport: stream truncated after %d bytes: no completion trailer", out.Bytes)
	}
	out.SourceErrors = n.read(StreamErrorsTrailer, resp.Trailer.Get(StreamErrorsTrailer))
	if out.Mode == StreamModeEager {
		// Barrier-free bodies start before generation finishes, so the
		// counts arrive with the trailers.
		out.Matched = n.read(StreamMatchedHeader, resp.Trailer.Get(StreamMatchedHeader))
		out.Related = n.read(StreamRelatedHeader, resp.Trailer.Get(StreamRelatedHeader))
	}
	return out, n.err
}

// counts reads instance and error counts that came off the network,
// keeping the first bad one in err: a count that is missing, not an
// integer or negative is an error, never a zero.
type counts struct {
	where string // what carried the counts, for the error
	err   error
}

// read parses s, the value of key.
func (c *counts) read(key, s string) int {
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		if c.err == nil {
			c.err = fmt.Errorf("transport: %s has %s=%q, want a non-negative count", c.where, key, s)
		}
		return 0
	}
	return v
}
