package transport

// batch.go is the multi-query surface: POST /query/batch answers N
// S2SQL queries in one exchange, sharing one per-run document layer,
// one plan-cache pass, and one extraction scatter on the server
// (core.Middleware.QueryBatchTo), and streams the N serialized results
// back as one chunked response multiplexed in the instance.MuxWriter
// line framing — per-query bodies in chunk frames, per-query counts and
// errors in trailer frames, whole-response completion in an HTTP
// trailer. The middleware serializes each query into the core.Sink the
// transport hands it; the transport only frames. Each query's body
// bytes are identical to what the single-query endpoints produce.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/instance"
	"repro/internal/obs"
)

// BatchContentType is the media type of the multiplexed batch response
// body.
const BatchContentType = "application/vnd.s2s-batch"

// MaxBatchQueries bounds one batch request; a larger batch is refused
// rather than letting a single exchange monopolize the server.
const MaxBatchQueries = 64

// BatchRequest is the POST /query/batch body.
type BatchRequest struct {
	// Queries are the S2SQL queries, answered in order.
	Queries []string `json:"queries"`
	// Format names the serialization format for every result (one of
	// instance.ParseFormat's names; empty means OWL, as elsewhere).
	Format string `json:"format,omitempty"`
}

// Per-query trailer-frame keys of the batch wire format.
const (
	batchKeyMatched = "matched"
	batchKeyRelated = "related"
	batchKeyErrors  = "errors"
	batchKeyError   = "error"
)

// handleQueryBatch answers POST /query/batch. The response is always
// 200 once the batch is accepted: per-query failures ride in their
// trailer frames (a batch is N independent queries — one malformed
// query must not poison its siblings' results).
func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		Error(w, http.StatusMethodNotAllowed, fmt.Errorf("transport: %s not allowed", r.Method))
		return
	}
	if !s.AcquireQuerySlot(w) {
		return
	}
	defer s.ReleaseQuerySlot()

	var req BatchRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		Error(w, http.StatusBadRequest, fmt.Errorf("transport: empty batch"))
		return
	}
	if len(req.Queries) > MaxBatchQueries {
		Error(w, http.StatusBadRequest,
			fmt.Errorf("transport: batch of %d queries exceeds the limit of %d", len(req.Queries), MaxBatchQueries))
		return
	}
	format, ok := parseFormat(w, req.Format)
	if !ok {
		return
	}

	ctx, root := BeginRequest(s.mw, w, r, "http_query_batch")
	root.SetAttr("queries", strconv.Itoa(len(req.Queries)))
	w.Header().Set("Content-Type", BatchContentType)
	w.Header().Set("Trailer", StreamCompleteTrailer)

	mux := instance.NewMuxWriter(newFlushWriter(w))
	if err := mux.Header(len(req.Queries)); err != nil {
		EndRequest(root, err)
		return
	}

	// Every member answers through the middleware's answer path into its
	// own mux stream; its trailer frame follows its body at once, so each
	// member's frames are contiguous on the wire.
	outcome := "ok"
	var werr error
	s.mw.QueryBatchTo(ctx, req.Queries, format, func(i int) *core.Sink {
		return &core.Sink{W: mux.Stream(i), Begin: func(*instance.Result) error { return mux.Begin(i) }}
	}, func(i int, res *instance.Result, err error) {
		trailer := map[string]string{}
		if err != nil {
			outcome = "partial"
			trailer[batchKeyError] = err.Error()
		} else {
			trailer[batchKeyMatched] = strconv.Itoa(len(res.Matched))
			trailer[batchKeyRelated] = strconv.Itoa(len(res.Related))
			trailer[batchKeyErrors] = strconv.Itoa(len(res.Errors))
		}
		if werr == nil {
			werr = mux.Trailer(i, trailer)
		}
	})
	if werr != nil {
		// The connection itself failed: nothing more can be framed, and
		// the missing completion trailer tells the client.
		EndRequest(root, werr)
		return
	}
	w.Header().Set(StreamCompleteTrailer, "true")
	root.SetAttr("outcome", outcome)
	root.End()
}

// BatchResult is one query's slice of a batch response on the client.
type BatchResult struct {
	// Body is the query's serialized result document; empty when the
	// query failed before serialization.
	Body []byte
	// Matched, Related, and SourceErrors are the query's result counts.
	Matched      int
	Related      int
	SourceErrors int
	// Err is the query's server-side failure, nil on success.
	Err error
}

// QueryBatch submits N queries as one POST /query/batch exchange and
// demultiplexes the response into per-query results, aligned with
// queries. The returned error covers the exchange itself (transport
// failure, refused batch, truncated response); per-query failures are
// in each BatchResult.Err.
func (c *Client) QueryBatch(ctx context.Context, queries []string, format string) ([]BatchResult, error) {
	data, err := json.Marshal(BatchRequest{Queries: queries, Format: format})
	if err != nil {
		return nil, fmt.Errorf("transport: encoding request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/query/batch", bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("transport: building request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if span := obs.SpanFromContext(ctx); span != nil {
		req.Header.Set(TraceIDHeader, span.TraceID)
		req.Header.Set(SpanIDHeader, span.ID)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("transport: calling POST /query/batch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeResponse(resp, http.MethodPost, "/query/batch", nil)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, BatchContentType) {
		return nil, fmt.Errorf("transport: unexpected batch content type %q", ct)
	}

	// Each query's body is bounded as a single /query reply is.
	parts, err := instance.DemuxBatch(resp.Body, len(queries), maxResponseBody)
	if err != nil {
		return nil, fmt.Errorf("transport: demultiplexing batch response: %w", err)
	}
	if resp.Trailer.Get(StreamCompleteTrailer) != "true" {
		return nil, fmt.Errorf("transport: batch response truncated: no completion trailer")
	}
	if len(parts) != len(queries) {
		return nil, fmt.Errorf("transport: batch response frames %d queries, want %d", len(parts), len(queries))
	}
	out := make([]BatchResult, len(parts))
	for i, p := range parts {
		out[i] = BatchResult{Body: p.Body}
		if p.Trailer == nil {
			return nil, fmt.Errorf("transport: batch response has no trailer for query %d", i)
		}
		if msg, ok := p.Trailer[batchKeyError]; ok {
			out[i].Err = errors.New(msg)
			continue
		}
		n := counts{where: "batch trailer of query " + strconv.Itoa(i)}
		count := func(key string) int { return n.read(key, p.Trailer[key]) }
		out[i].Matched, out[i].Related, out[i].SourceErrors = count(batchKeyMatched), count(batchKeyRelated), count(batchKeyErrors)
		if n.err != nil {
			return nil, n.err
		}
	}
	return out, nil
}
