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

// contentTypeFor maps a serialization format to its media type; the
// /query/stream body is the raw serialized document, not a JSON
// envelope.
func contentTypeFor(f instance.Format) string {
	switch f {
	case instance.FormatOWL:
		return "application/rdf+xml"
	case instance.FormatTurtle:
		return "text/turtle; charset=utf-8"
	case instance.FormatNTriples:
		return "application/n-triples"
	case instance.FormatXML:
		return "application/xml"
	case instance.FormatJSON:
		return "application/json"
	default:
		return "text/plain; charset=utf-8"
	}
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

// countingWriter tracks whether any body byte reached the response, so
// an error raised before the first write can still use a regular error
// status (the response is uncommitted until then).
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// handleQueryStream answers GET /query/stream?q=...&format=...: the
// serialized document goes out as a chunked body with completion
// signaled in trailers. A merge-free query in an instance-incremental
// format streams eagerly (counts in the trailers); every other query is
// materialized first (counts in the headers) and leaves in chunks.
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("transport: %s not allowed", r.Method))
		return
	}
	if !s.acquireQuerySlot(w) {
		return
	}
	defer s.releaseQuerySlot()
	req, format, ok := DecodeQueryRequest(w, r)
	if !ok {
		return
	}
	ctx, root := BeginRequest(s.mw, w, r, "http_query_stream")

	// Plan first (through the plan cache — the query run below replans
	// for free) to learn the merge-free verdict: it decides, before the
	// response commits, whether the body can stream barrier-free.
	_, mergeFree, err := s.mw.PlanMergeFree(ctx, req.Query)
	if err != nil {
		EndRequest(root, err)
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if s.mw.EagerStream(mergeFree, format) {
		s.streamEager(ctx, root, w, req.Query, format)
		return
	}

	// Barrier mode: the query is materialized before serialization
	// starts, so the instance counts go out as headers and a failure
	// here is still pre-body.
	res, err := s.mw.Query(ctx, req.Query)
	if err != nil {
		EndRequest(root, err)
		httpError(w, http.StatusBadRequest, err)
		return
	}

	w.Header().Set("Content-Type", contentTypeFor(format))
	w.Header().Set(StreamModeHeader, StreamModeBarrier)
	w.Header().Set(StreamMatchedHeader, strconv.Itoa(len(res.Matched)))
	w.Header().Set(StreamRelatedHeader, strconv.Itoa(len(res.Related)))
	// Announce the trailers before the first body byte; their values are
	// set after the body, which is the point: they report how it ended.
	w.Header().Set("Trailer", StreamCompleteTrailer+", "+StreamErrorsTrailer+", "+StreamErrorTrailer)

	fw := newFlushWriter(w)
	if fw.f != nil {
		// Commit the header block and the chunked framing before
		// serialization. A zero-instance result can serialize to zero
		// bytes (NTriples has no envelope); an uncommitted zero-byte
		// response would go out with Content-Length: 0, and net/http
		// silently drops announced trailers from such a response — the
		// client would then read a completed stream as truncated.
		fw.f.Flush()
	}
	_, err = s.mw.Generator().SerializeChunked(ctx, fw, res, format)
	EndRequest(root, err)
	if err != nil {
		// Mid-stream failure: part of the body is on the wire. Terminate
		// the chunked response with the error in a trailer instead of
		// leaving a silently truncated document.
		w.Header().Set(StreamErrorTrailer, err.Error())
		return
	}
	w.Header().Set(StreamCompleteTrailer, "true")
	w.Header().Set(StreamErrorsTrailer, strconv.Itoa(len(res.Errors)))
}

// streamEager serves /query/stream barrier-free: the body starts as the
// canonically first source finishes extracting, so the instance counts are not known
// until the body ends — they ride in the trailers alongside the
// completion signal. QueryToStream re-checks the verdict internally and
// materializes if the catalog mutated since the header decision; the
// bytes are identical either way, and the counts are written from the
// returned result regardless.
func (s *Server) streamEager(ctx context.Context, root *obs.Span, w http.ResponseWriter, query string, format instance.Format) {
	w.Header().Set("Content-Type", contentTypeFor(format))
	w.Header().Set(StreamModeHeader, StreamModeEager)
	w.Header().Set("Trailer", strings.Join([]string{
		StreamCompleteTrailer, StreamErrorsTrailer, StreamErrorTrailer,
		StreamMatchedHeader, StreamRelatedHeader,
	}, ", "))

	cw := &countingWriter{w: newFlushWriter(w)}
	res, _, err := s.mw.QueryToStream(ctx, cw, query, format)
	EndRequest(root, err)
	if err != nil {
		if cw.n == 0 {
			// Pre-body failure (extraction refused): the response is
			// still uncommitted, so undo the streaming headers and fail
			// with a regular status.
			w.Header().Del("Trailer")
			w.Header().Del(StreamModeHeader)
			w.Header().Del("Content-Type")
			httpError(w, http.StatusBadRequest, err)
			return
		}
		w.Header().Set(StreamErrorTrailer, err.Error())
		return
	}
	w.Header().Set(StreamCompleteTrailer, "true")
	w.Header().Set(StreamErrorsTrailer, strconv.Itoa(len(res.Errors)))
	w.Header().Set(StreamMatchedHeader, strconv.Itoa(len(res.Matched)))
	w.Header().Set(StreamRelatedHeader, strconv.Itoa(len(res.Related)))
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
	out.Matched, _ = strconv.Atoi(resp.Header.Get(StreamMatchedHeader))
	out.Related, _ = strconv.Atoi(resp.Header.Get(StreamRelatedHeader))

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
	out.SourceErrors, _ = strconv.Atoi(resp.Trailer.Get(StreamErrorsTrailer))
	if out.Mode == StreamModeEager {
		// Barrier-free bodies start before generation finishes, so the
		// counts arrive with the trailers.
		out.Matched, _ = strconv.Atoi(resp.Trailer.Get(StreamMatchedHeader))
		out.Related, _ = strconv.Atoi(resp.Trailer.Get(StreamRelatedHeader))
	}
	return out, nil
}
