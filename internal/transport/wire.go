// Package transport exposes the S2S middleware as a B2B network endpoint
// and provides the matching Go client, plus an HTTP-backed page fetcher so
// web data sources can be genuinely remote. This is the deployment shape
// the paper's B2B setting implies: partner organizations query one S2S
// endpoint over the network instead of integrating pairwise.
package transport

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/datasource"
	"repro/internal/mapping"
	"repro/internal/obs"
)

// WireSource is the JSON form of a data source definition.
type WireSource struct {
	ID    string            `json:"id"`
	Kind  string            `json:"kind"`
	URL   string            `json:"url,omitempty"`
	Path  string            `json:"path,omitempty"`
	DSN   string            `json:"dsn,omitempty"`
	Props map[string]string `json:"props,omitempty"`
}

// ToDefinition converts the wire form.
func (w WireSource) ToDefinition() (datasource.Definition, error) {
	def := datasource.Definition{ID: w.ID, URL: w.URL, Path: w.Path, DSN: w.DSN, Props: w.Props}
	switch strings.ToLower(w.Kind) {
	case "web":
		def.Kind = datasource.KindWeb
	case "xml":
		def.Kind = datasource.KindXML
	case "database", "db":
		def.Kind = datasource.KindDatabase
	case "text":
		def.Kind = datasource.KindText
	default:
		return def, fmt.Errorf("transport: unknown source kind %q", w.Kind)
	}
	return def, def.Validate()
}

// FromDefinition converts to the wire form.
func FromDefinition(def datasource.Definition) WireSource {
	return WireSource{
		ID: def.ID, Kind: def.Kind.String(),
		URL: def.URL, Path: def.Path, DSN: def.DSN, Props: def.Props,
	}
}

// WireMapping is the JSON form of a mapping entry.
type WireMapping struct {
	Attribute string `json:"attribute"`
	Source    string `json:"source"`
	Language  string `json:"language,omitempty"`
	Code      string `json:"code"`
	Column    string `json:"column,omitempty"`
	Transform string `json:"transform,omitempty"`
	Scenario  string `json:"scenario,omitempty"`
}

// ToEntry converts the wire form.
func (w WireMapping) ToEntry() (mapping.Entry, error) {
	e := mapping.Entry{
		AttributeID: w.Attribute,
		SourceID:    w.Source,
		Rule:        mapping.Rule{Code: w.Code, Column: w.Column, Transform: w.Transform},
	}
	if w.Language != "" {
		lang, err := mapping.ParseLanguage(w.Language)
		if err != nil {
			return e, err
		}
		e.Rule.Language = lang
	}
	switch strings.ToLower(w.Scenario) {
	case "":
	case "single", "single-record":
		e.Scenario = mapping.SingleRecord
	case "multi", "multi-record":
		e.Scenario = mapping.MultiRecord
	default:
		return e, fmt.Errorf("transport: unknown scenario %q", w.Scenario)
	}
	return e, nil
}

// FromEntry converts to the wire form. Unset language and scenario (the
// repository defaults them at registration) serialize as empty strings.
func FromEntry(e mapping.Entry) WireMapping {
	wm := WireMapping{
		Attribute: e.AttributeID,
		Source:    e.SourceID,
		Code:      e.Rule.Code,
		Column:    e.Rule.Column,
		Transform: e.Rule.Transform,
	}
	if e.Rule.Language != 0 {
		wm.Language = e.Rule.Language.String()
	}
	if e.Scenario != 0 {
		wm.Scenario = e.Scenario.String()
	}
	return wm
}

// Trace propagation headers of the remote-source protocol. A caller that
// is itself traced sends both; the server joins the caller's trace
// instead of minting a new one, and echoes the trace ID on the response,
// so a federated query reads as one connected span tree.
const (
	// TraceIDHeader carries the trace identifier shared by every span of
	// one federated query.
	TraceIDHeader = "X-S2s-Trace-Id"
	// SpanIDHeader carries the caller's active span ID — the parent of
	// the server-side subtree.
	SpanIDHeader = "X-S2s-Span-Id"
)

// QueryRequest is the body of POST /query.
type QueryRequest struct {
	Query  string `json:"query"`
	Format string `json:"format,omitempty"`
	// Trace asks the server to return its span tree for this query in
	// QueryResponse.Trace (GET form: ?trace=1).
	Trace bool `json:"trace,omitempty"`
}

// QueryResponse is the envelope of a query answer.
type QueryResponse struct {
	Query   string   `json:"query"`
	Format  string   `json:"format"`
	Matched int      `json:"matched"`
	Related int      `json:"related"`
	Errors  []string `json:"errors,omitempty"`
	Missing []string `json:"missing,omitempty"`
	// Body is the serialized result in the requested format.
	Body string `json:"body"`
	// Trace is the server-side span tree, present when the request set
	// Trace. A traced caller grafts it under its own span (Span.Adopt) to
	// see the federated query as one tree.
	Trace *obs.Span `json:"trace,omitempty"`
}

// SPARQLRequest is the body of POST /sparql: assemble instances with an
// S2SQL query (the ontology root class when empty), optionally materialize
// RDFS entailments, then evaluate the SPARQL query over the result graph.
type SPARQLRequest struct {
	S2SQL  string `json:"s2sql,omitempty"`
	SPARQL string `json:"sparql"`
	Reason bool   `json:"reason,omitempty"`
}

// SPARQLResponse carries the solutions; terms are in N-Triples syntax.
type SPARQLResponse struct {
	Vars     []string            `json:"vars"`
	Bindings []map[string]string `json:"bindings"`
}

// HTTPFetcher fetches pages over real HTTP: as the page backend
// (extract.Backends.Pages: HTTPFetcher.Fetch) it connects the WebL
// GetURL builtin and selector rules to remote web data sources.
type HTTPFetcher struct {
	// Client is the HTTP client; nil uses a client with DefaultFetchTimeout.
	Client *http.Client
	// MaxBytes caps the fetched body; 0 means DefaultMaxFetchBytes.
	MaxBytes int64
}

// Defaults for HTTPFetcher.
const (
	DefaultFetchTimeout  = 10 * time.Second
	DefaultMaxFetchBytes = 8 << 20
)

// Fetch fetches the page at url under ctx; a method value of it is an
// extract.Backend for web pages. When ctx carries an active span, the
// trace/span ID headers are forwarded so remote web sources join the
// query's trace.
func (f *HTTPFetcher) Fetch(ctx context.Context, url string) (string, error) {
	client := f.Client
	if client == nil {
		client = &http.Client{Timeout: DefaultFetchTimeout}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", fmt.Errorf("transport: fetching %s: %w", url, err)
	}
	if span := obs.SpanFromContext(ctx); span != nil {
		req.Header.Set(TraceIDHeader, span.TraceID)
		req.Header.Set(SpanIDHeader, span.ID)
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", fmt.Errorf("transport: fetching %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("transport: fetching %s: status %s", url, resp.Status)
	}
	maxBytes := f.MaxBytes
	if maxBytes <= 0 {
		maxBytes = DefaultMaxFetchBytes
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBytes))
	if err != nil {
		return "", fmt.Errorf("transport: reading %s: %w", url, err)
	}
	return string(body), nil
}
