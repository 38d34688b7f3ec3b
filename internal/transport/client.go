package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// Client talks to a remote S2S middleware endpoint. Idempotent GET
// requests are retried on transport errors and retriable statuses (429,
// 502, 503, 504), honoring the server's Retry-After when present —
// pairing with the server's load shedding so a briefly saturated
// endpoint sheds instead of failing its callers.
type Client struct {
	base string
	http *http.Client

	retries   int
	retryBase time.Duration
}

// NewClient builds a client for the endpoint base URL, e.g.
// "http://localhost:8080". A nil httpClient uses a client with
// DefaultClientTimeout. GETs retry up to DefaultGetRetries times;
// SetRetries changes that.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: DefaultClientTimeout}
	}
	return &Client{
		base:      strings.TrimRight(base, "/"),
		http:      httpClient,
		retries:   DefaultGetRetries,
		retryBase: DefaultRetryBase,
	}
}

// Defaults for the client's retry behavior.
const (
	// DefaultClientTimeout bounds client calls.
	DefaultClientTimeout = 30 * time.Second
	// DefaultGetRetries is how many times an idempotent GET is retried
	// after a transport error or retriable status.
	DefaultGetRetries = 2
	// DefaultRetryBase is the first retry delay (doubled per attempt),
	// used when the server sends no Retry-After.
	DefaultRetryBase = 100 * time.Millisecond
)

// SetRetries configures how many times idempotent GETs are retried
// (0 disables retrying).
func (c *Client) SetRetries(n int) { c.retries = n }

// retriableStatus reports statuses worth retrying an idempotent request
// for: rate limiting and transient upstream failures.
func retriableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// retryDelay picks the wait before retry attempt (0-based): the server's
// Retry-After if it sent one, else the doubling base delay.
func (c *Client) retryDelay(resp *http.Response, attempt int) time.Duration {
	if resp != nil {
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(strings.TrimSpace(ra)); err == nil && secs >= 0 {
				return time.Duration(secs) * time.Second
			}
		}
	}
	return c.retryBase << attempt
}

// sleepCtx waits d or until ctx is done; it reports whether the full
// wait elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var data []byte
	if body != nil {
		var err error
		data, err = json.Marshal(body)
		if err != nil {
			return fmt.Errorf("transport: encoding request: %w", err)
		}
	}
	// Only idempotent GETs are retried: replaying a POST could register a
	// source twice or double-run a mutation.
	attempts := 1
	if method == http.MethodGet {
		attempts += c.retries
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		var reader io.Reader
		if body != nil {
			reader = bytes.NewReader(data)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, reader)
		if err != nil {
			return fmt.Errorf("transport: building request: %w", err)
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		// Forward the caller's trace identity so the remote middleware joins
		// this trace instead of starting its own.
		if span := obs.SpanFromContext(ctx); span != nil {
			req.Header.Set(TraceIDHeader, span.TraceID)
			req.Header.Set(SpanIDHeader, span.ID)
		}
		resp, err := c.http.Do(req)
		if err != nil {
			lastErr = fmt.Errorf("transport: calling %s %s: %w", method, path, err)
			if attempt < attempts-1 && ctx.Err() == nil && sleepCtx(ctx, c.retryDelay(nil, attempt)) {
				continue
			}
			return lastErr
		}
		if retriableStatus(resp.StatusCode) && attempt < attempts-1 {
			delay := c.retryDelay(resp, attempt)
			//lint:ignore errcheck best-effort drain so the connection can be reused; the status is the error being handled
			io.Copy(io.Discard, resp.Body)
			//lint:ignore errcheck close of a drained body before retry; the status is the error being handled
			resp.Body.Close()
			lastErr = fmt.Errorf("transport: %s %s: status %s", method, path, resp.Status)
			if sleepCtx(ctx, delay) {
				continue
			}
			return lastErr
		}
		err = decodeResponse(resp, method, path, out)
		//lint:ignore errcheck decodeResponse already consumed the body; its error takes precedence
		resp.Body.Close()
		return err
	}
	return lastErr
}

// maxResponseBody bounds every reply body the client reads: a JSON
// answer or error, the ontology document, and each query's body within
// a batch response. The largest reply the
// transport and integration tests and the examples produce is a 46.8 KB
// query answer; 16 MiB is over 300 times that, leaves room for the
// thousand-instance answers of a bulk query, and still refuses a
// runaway or hostile endpoint before it fills memory.
const maxResponseBody = 16 << 20

// readAtMost reads r to its end, refusing a body longer than limit bytes
// instead of reading all of it.
func readAtMost(r io.Reader, limit int64) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("transport: response body exceeds %d bytes", limit)
	}
	return data, nil
}

// ReadJSON decodes the JSON document r holds into v, refusing a body
// longer than limit bytes instead of reading all of it. Every reply a
// client or cluster node reads from a peer goes through it.
func ReadJSON(r io.Reader, limit int64, v any) error {
	data, err := readAtMost(r, limit)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// decodeResponse turns one HTTP exchange into the call's result.
func decodeResponse(resp *http.Response, method, path string, out any) error {
	if resp.StatusCode >= 400 {
		var e struct {
			Error string `json:"error"`
		}
		if err := ReadJSON(resp.Body, maxResponseBody, &e); err == nil && e.Error != "" {
			return fmt.Errorf("transport: %s %s: %s (status %d)", method, path, e.Error, resp.StatusCode)
		}
		return fmt.Errorf("transport: %s %s: status %s", method, path, resp.Status)
	}
	if out != nil {
		if err := ReadJSON(resp.Body, maxResponseBody, out); err != nil {
			return fmt.Errorf("transport: decoding response: %w", err)
		}
	}
	return nil
}

// Query runs an S2SQL query remotely.
func (c *Client) Query(ctx context.Context, query, format string) (*QueryResponse, error) {
	var out QueryResponse
	if err := c.do(ctx, http.MethodPost, "/query", QueryRequest{Query: query, Format: format}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// QueryTraced runs an S2SQL query remotely and asks the server for its
// span tree. When ctx carries an active local span, the returned server
// subtree is grafted under it, so the federated query reads as one
// connected trace (the server joined the local trace ID via the
// forwarded headers).
func (c *Client) QueryTraced(ctx context.Context, query, format string) (*QueryResponse, error) {
	var out QueryResponse
	if err := c.do(ctx, http.MethodPost, "/query", QueryRequest{Query: query, Format: format, Trace: true}, &out); err != nil {
		return nil, err
	}
	obs.SpanFromContext(ctx).Adopt(out.Trace)
	return &out, nil
}

// QueryGet runs a query via the GET form.
func (c *Client) QueryGet(ctx context.Context, query, format string) (*QueryResponse, error) {
	v := url.Values{"q": {query}}
	if format != "" {
		v.Set("format", format)
	}
	var out QueryResponse
	if err := c.do(ctx, http.MethodGet, "/query?"+v.Encode(), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RegisterSource registers a data source remotely.
func (c *Client) RegisterSource(ctx context.Context, ws WireSource) error {
	return c.do(ctx, http.MethodPost, "/sources", ws, nil)
}

// RegisterMapping registers a mapping entry remotely.
func (c *Client) RegisterMapping(ctx context.Context, wm WireMapping) error {
	return c.do(ctx, http.MethodPost, "/mappings", wm, nil)
}

// Sources lists the remote source definitions.
func (c *Client) Sources(ctx context.Context) ([]WireSource, error) {
	var out []WireSource
	if err := c.do(ctx, http.MethodGet, "/sources", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Mappings lists the remote mapping entries.
func (c *Client) Mappings(ctx context.Context) ([]WireMapping, error) {
	var out []WireMapping
	if err := c.do(ctx, http.MethodGet, "/mappings", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Ontology fetches the remote ontology as an OWL document.
func (c *Client) Ontology(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/ontology", nil)
	if err != nil {
		return "", fmt.Errorf("transport: building request: %w", err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", fmt.Errorf("transport: fetching ontology: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("transport: fetching ontology: status %s", resp.Status)
	}
	body, err := readAtMost(resp.Body, maxResponseBody)
	if err != nil {
		return "", fmt.Errorf("transport: reading ontology: %w", err)
	}
	return string(body), nil
}

// SPARQL runs a semantic-processing request against the endpoint.
func (c *Client) SPARQL(ctx context.Context, req SPARQLRequest) (*SPARQLResponse, error) {
	var out SPARQLResponse
	if err := c.do(ctx, http.MethodPost, "/sparql", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health probes the endpoint.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}
