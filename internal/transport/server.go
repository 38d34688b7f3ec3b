package transport

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/reason"
	"repro/internal/sparql"
)

// Server exposes a middleware over HTTP.
//
// Routes:
//
//	GET  /healthz        liveness probe
//	POST /query          QueryRequest → QueryResponse
//	GET  /query          ?q=...&format=... → QueryResponse
//	GET  /query/stream   ?q=...&format=... → raw serialized body, chunked,
//	                     completion signaled in trailers (see stream.go);
//	                     merge-free queries stream barrier-free (X-S2s-Stream-Mode)
//	POST /query/batch    BatchRequest → N results multiplexed over one
//	                     chunked body (see batch.go)
//	GET  /ontology       the ontology as an OWL (RDF/XML) document
//	GET  /sources        registered source definitions (JSON)
//	POST /sources        register a WireSource
//	GET  /mappings       registered mapping entries (JSON)
//	POST /mappings       register a WireMapping
//	GET  /stats          middleware statistics (JSON)
//	GET  /metrics        Prometheus text-format counters and histograms
//	GET  /trace/last     recent completed query span trees (JSON, ?n=)
//	POST /sparql         SPARQLRequest → SPARQLResponse (optionally reasoned)
//	GET  /health/sources per-source circuit breaker state (JSON)
//
// The query endpoint participates in distributed tracing: it joins a
// caller trace announced via the TraceIDHeader/SpanIDHeader request
// headers, echoes TraceIDHeader on the response, and returns its span
// tree in QueryResponse.Trace when the request asks for it.
type Server struct {
	mw  *core.Middleware
	mux *http.ServeMux

	// querySem, when non-nil, caps concurrent query work (/query,
	// /query/stream, /query/batch, /sparql, and a cluster node's
	// /cluster/query); requests over the cap are shed with 503 +
	// Retry-After instead of queuing without bound (a saturated
	// integration endpoint that answers some callers fast beats one
	// that answers every caller too late).
	querySem       chan struct{}
	shedRetryAfter time.Duration
	// shedJitterSecs widens the advertised Retry-After by a random 0..N
	// extra seconds. A shed burst hits many clients in the same instant;
	// a fixed Retry-After would resynchronize them into a retry stampede
	// exactly that many seconds later, so each shed response draws its
	// own delay. shedRandIntn is the jitter seam (tests inject a
	// deterministic sequence); guarded by shedRandMu.
	shedJitterSecs int
	shedRandMu     sync.Mutex
	shedRandIntn   func(n int) int
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithMaxConcurrentQueries caps concurrent query requests at n;
// requests beyond the cap get 503 with a Retry-After header. n <= 0
// leaves shedding off.
func WithMaxConcurrentQueries(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.querySem = make(chan struct{}, n)
		}
	}
}

// DefaultShedJitterSeconds is the default width of the random extension
// added to a shed response's Retry-After (0..N extra whole seconds).
const DefaultShedJitterSeconds = 2

// NewServer wraps a middleware in an HTTP handler.
func NewServer(mw *core.Middleware, opts ...ServerOption) *Server {
	s := &Server{mw: mw, mux: http.NewServeMux(), shedRetryAfter: time.Second,
		shedJitterSecs: DefaultShedJitterSeconds}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	s.shedRandIntn = rng.Intn
	for _, opt := range opts {
		opt(s)
	}
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/query/stream", s.handleQueryStream)
	s.mux.HandleFunc("/query/batch", s.handleQueryBatch)
	s.mux.HandleFunc("/ontology", s.handleOntology)
	s.mux.HandleFunc("/sources", s.handleSources)
	s.mux.HandleFunc("/mappings", s.handleMappings)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/trace/last", s.handleTraceLast)
	s.mux.HandleFunc("/sparql", s.handleSPARQL)
	s.mux.HandleFunc("/health/sources", s.handleSourceHealth)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Middleware returns the middleware this server fronts (the cluster
// layer wraps a Server and drives the same middleware).
func (s *Server) Middleware() *core.Middleware { return s.mw }

// HealthStatus is the /healthz body: enough state for a cluster failure
// detector (or an external monitor) to tell "up" from "healthy". Status
// is "ok" when the server is fully serviceable and "degraded" when it
// is alive but impaired — source breakers open, or the concurrent-query
// semaphore at capacity (new queries would shed).
type HealthStatus struct {
	Status       string `json:"status"`
	Sources      int    `json:"sources"`
	BreakersOpen int    `json:"breakersOpen"`
	// ShedCapacity is the concurrent-query cap (0 = unlimited) and
	// ShedInFlight the slots currently held.
	ShedCapacity int `json:"shedCapacity"`
	ShedInFlight int `json:"shedInFlight"`
}

// Health snapshots the server's health. Safe to call concurrently.
func (s *Server) Health() HealthStatus {
	h := HealthStatus{Status: "ok"}
	for _, sh := range s.mw.SourceHealth() {
		h.Sources++
		if sh.Open {
			h.BreakersOpen++
		}
	}
	if s.querySem != nil {
		h.ShedCapacity = cap(s.querySem)
		h.ShedInFlight = len(s.querySem)
	}
	if h.BreakersOpen > 0 || (h.ShedCapacity > 0 && h.ShedInFlight >= h.ShedCapacity) {
		h.Status = "degraded"
	}
	return h
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	WriteJSON(w, s.Health())
}

// Error answers an HTTP error as the JSON envelope {"error": "..."}
// with the given status. The cluster's /cluster/* handlers share it.
func Error(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	WriteJSON(w, map[string]string{"error": err.Error()})
}

// WriteJSON encodes v onto the response. Every handler, the cluster's
// too, funnels its replies through here, so the deliberate discard below
// is the only one besides AnswerQuery's, which writes the query envelope
// itself (envelope.go).
func WriteJSON(w http.ResponseWriter, v any) {
	//lint:ignore errcheck a response-encode failure means the peer hung up; the dead connection is the only place to report it
	_ = json.NewEncoder(w).Encode(v)
}

// AcquireQuerySlot claims a concurrent-query slot, shedding the request
// with 503 + Retry-After when the server is at capacity. It reports
// whether the handler may proceed; a true return must be paired with
// ReleaseQuerySlot. The cluster's /cluster/query shares the slots.
func (s *Server) AcquireQuerySlot(w http.ResponseWriter) bool {
	if s.querySem == nil {
		return true
	}
	select {
	case s.querySem <- struct{}{}:
		return true
	default:
		s.mw.Metrics().Counter(obs.MetricQueryTotal, obs.Labels{"outcome": obs.OutcomeShed}).Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.shedRetryAfterSecs()))
		Error(w, http.StatusServiceUnavailable,
			fmt.Errorf("transport: server at concurrent-query capacity, retry later"))
		return false
	}
}

// shedRetryAfterSecs draws the Retry-After value for one shed response:
// the base delay plus 0..shedJitterSecs extra whole seconds, so
// concurrent shed victims retry at spread-out times instead of in one
// synchronized wave.
func (s *Server) shedRetryAfterSecs() int {
	secs := int(s.shedRetryAfter / time.Second)
	if s.shedJitterSecs > 0 {
		s.shedRandMu.Lock()
		secs += s.shedRandIntn(s.shedJitterSecs + 1)
		s.shedRandMu.Unlock()
	}
	return secs
}

// ReleaseQuerySlot frees a slot AcquireQuerySlot claimed.
func (s *Server) ReleaseQuerySlot() {
	if s.querySem != nil {
		<-s.querySem
	}
}

// MaxRequestBody bounds every POSTed request body; a larger one is
// refused with 413 instead of being decoded into memory.
const MaxRequestBody = 1 << 20

// DecodeBody decodes a POSTed JSON body of at most MaxRequestBody bytes
// into v. On failure it answers the 4xx itself and reports false.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBody)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	Error(w, code, fmt.Errorf("transport: decoding request: %w", err))
	return false
}

// parseFormat resolves a request's format name; OWL, the paper's primary
// output, when unnamed. On failure it answers 400 and reports false.
func parseFormat(w http.ResponseWriter, name string) (instance.Format, bool) {
	if name == "" {
		return instance.FormatOWL, true
	}
	f, err := instance.ParseFormat(name)
	if err != nil {
		Error(w, http.StatusBadRequest, err)
	}
	return f, err == nil
}

// DecodeQueryRequest reads a query request in either form — a POSTed
// QueryRequest or GET ?q=&format=&trace= — rejects an empty query, and
// resolves the format. On a malformed request it answers the 4xx itself
// and reports false. The cluster's /cluster/query shares it.
func DecodeQueryRequest(w http.ResponseWriter, r *http.Request) (QueryRequest, instance.Format, bool) {
	var req QueryRequest
	switch r.Method {
	case http.MethodPost:
		if !DecodeBody(w, r, &req) {
			return req, 0, false
		}
	case http.MethodGet:
		req.Query = r.URL.Query().Get("q")
		req.Format = r.URL.Query().Get("format")
		switch r.URL.Query().Get("trace") {
		case "1", "true", "yes":
			req.Trace = true
		}
	default:
		Error(w, http.StatusMethodNotAllowed, fmt.Errorf("transport: %s not allowed", r.Method))
		return req, 0, false
	}
	if strings.TrimSpace(req.Query) == "" {
		Error(w, http.StatusBadRequest, fmt.Errorf("transport: empty query"))
		return req, 0, false
	}
	format, ok := parseFormat(w, req.Format)
	return req, format, ok
}

// BeginRequest opens a handler's root span: it joins the caller's trace
// when the request announces one (TraceIDHeader/SpanIDHeader), injects
// the middleware's metrics registry, and echoes the trace ID on the
// response. The middleware's own spans nest under the returned root;
// the handler ends it.
func BeginRequest(mw *core.Middleware, w http.ResponseWriter, r *http.Request, name string) (context.Context, *obs.Span) {
	ctx := obs.ContextWithMetrics(r.Context(), mw.Metrics())
	if tid := r.Header.Get(TraceIDHeader); tid != "" {
		ctx = obs.ContextWithRemote(ctx, obs.Remote{TraceID: tid, ParentID: r.Header.Get(SpanIDHeader)})
	}
	ctx, root := mw.Tracer().StartTrace(ctx, name)
	w.Header().Set(TraceIDHeader, root.TraceID)
	return ctx, root
}

// EndRequest stamps the root span with how the request ended — "ok", or
// "error" when err is non-nil — and ends it.
func EndRequest(root *obs.Span, err error) {
	outcome := "ok"
	if err != nil {
		outcome = "error"
	}
	root.SetAttr("outcome", outcome)
	root.End()
}

// AnswerQuery answers a JSON-envelope query route (/query, and the
// cluster's /cluster/query): it runs req through Middleware.Answer and
// writes the QueryResponse envelope — then trace (root, when trace is
// set) and the tail fields — with the document escaped straight onto w,
// never copied whole. It ends root with the outcome after serialization,
// so a failed one is traced as an error. The head goes out with the
// document's one write, after serialization succeeded, so a failure
// answers with the JSON error envelope: 400 before serialization starts,
// 500 during it. A write that fails once body bytes are out means the
// peer hung up, and nothing more is sent.
func AnswerQuery(ctx context.Context, w http.ResponseWriter, root *obs.Span, mw *core.Middleware, req core.Request, trace bool, tail ...Field) {
	env := &envelopeWriter{w: w}
	defer env.release()
	_, _, err := mw.Answer(ctx, req, &core.Sink{W: env, Begin: func(res *instance.Result) error {
		return env.begin(res, req.Format)
	}})
	EndRequest(root, err)
	switch {
	case err == nil:
	case env.started:
		return
	case env.head != nil:
		Error(w, http.StatusInternalServerError, err)
		return
	default:
		Error(w, http.StatusBadRequest, err)
		return
	}
	if trace {
		tail = append([]Field{{Name: "trace", Value: root}}, tail...)
	}
	//lint:ignore errcheck the answer is complete; a failed tail write means the peer hung up, and the dead connection is the only place to report it
	_ = env.finish(tail)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !s.AcquireQuerySlot(w) {
		return
	}
	defer s.ReleaseQuerySlot()
	req, format, ok := DecodeQueryRequest(w, r)
	if !ok {
		return
	}
	ctx, root := BeginRequest(s.mw, w, r, "http_query")
	AnswerQuery(ctx, w, root, s.mw, core.Request{Query: req.Query, Format: format}, req.Trace)
}

// handleMetrics exposes the middleware's metrics registry in the
// Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		Error(w, http.StatusMethodNotAllowed, fmt.Errorf("transport: %s not allowed", r.Method))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	//lint:ignore errcheck a scrape-write failure means the scraper hung up; nothing to do but serve the next scrape
	_ = s.mw.Metrics().WritePrometheus(w)
}

// handleTraceLast returns the most recent completed query span trees as
// a JSON array, newest first (?n= bounds the count, default 1).
func (s *Server) handleTraceLast(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		Error(w, http.StatusMethodNotAllowed, fmt.Errorf("transport: %s not allowed", r.Method))
		return
	}
	n := 1
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 {
			Error(w, http.StatusBadRequest, fmt.Errorf("transport: bad n %q", v))
			return
		}
		n = parsed
	}
	traces := s.mw.Tracer().Last(n)
	if traces == nil {
		traces = []*obs.Span{}
	}
	w.Header().Set("Content-Type", "application/json")
	WriteJSON(w, traces)
}

func (s *Server) handleOntology(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		Error(w, http.StatusMethodNotAllowed, fmt.Errorf("transport: %s not allowed", r.Method))
		return
	}
	w.Header().Set("Content-Type", "application/rdf+xml")
	if err := s.mw.Ontology().WriteOWL(w); err != nil {
		Error(w, http.StatusInternalServerError, err)
	}
}

func (s *Server) handleSources(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		defs := s.mw.Sources().All()
		out := make([]WireSource, len(defs))
		for i, d := range defs {
			out[i] = FromDefinition(d)
		}
		w.Header().Set("Content-Type", "application/json")
		WriteJSON(w, out)
	case http.MethodPost:
		var ws WireSource
		if !DecodeBody(w, r, &ws) {
			return
		}
		def, err := ws.ToDefinition()
		if err != nil {
			Error(w, http.StatusBadRequest, err)
			return
		}
		if err := s.mw.RegisterSource(def); err != nil {
			Error(w, http.StatusConflict, err)
			return
		}
		w.WriteHeader(http.StatusCreated)
	default:
		Error(w, http.StatusMethodNotAllowed, fmt.Errorf("transport: %s not allowed", r.Method))
	}
}

func (s *Server) handleMappings(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		entries := s.mw.Mappings().AllEntries()
		out := make([]WireMapping, len(entries))
		for i, e := range entries {
			out[i] = FromEntry(e)
		}
		w.Header().Set("Content-Type", "application/json")
		WriteJSON(w, out)
	case http.MethodPost:
		var wm WireMapping
		if !DecodeBody(w, r, &wm) {
			return
		}
		entry, err := wm.ToEntry()
		if err != nil {
			Error(w, http.StatusBadRequest, err)
			return
		}
		if err := s.mw.RegisterMapping(entry); err != nil {
			Error(w, http.StatusConflict, err)
			return
		}
		w.WriteHeader(http.StatusCreated)
	default:
		Error(w, http.StatusMethodNotAllowed, fmt.Errorf("transport: %s not allowed", r.Method))
	}
}

// handleSPARQL answers a semantic-processing request: it runs an S2SQL
// query to assemble ontology instances, optionally materializes the
// ontology's RDFS entailments over the result graph, and evaluates a SPARQL
// query against it — the downstream knowledge-processing path the paper's
// conclusion motivates, offered directly by the endpoint. It holds a
// concurrent-query slot like the other query routes, and its query joins
// the caller's trace under an http_sparql root.
func (s *Server) handleSPARQL(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		Error(w, http.StatusMethodNotAllowed, fmt.Errorf("transport: %s not allowed", r.Method))
		return
	}
	if !s.AcquireQuerySlot(w) {
		return
	}
	defer s.ReleaseQuerySlot()
	var req SPARQLRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.SPARQL) == "" {
		Error(w, http.StatusBadRequest, fmt.Errorf("transport: empty sparql query"))
		return
	}
	ctx, root := BeginRequest(s.mw, w, r, "http_sparql")
	resp, code, err := s.answerSPARQL(ctx, req)
	EndRequest(root, err)
	if err != nil {
		Error(w, code, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	WriteJSON(w, resp)
}

// answerSPARQL computes handleSPARQL's answer, or the error and the status
// that reports it.
func (s *Server) answerSPARQL(ctx context.Context, req SPARQLRequest) (SPARQLResponse, int, error) {
	s2sqlQuery := req.S2SQL
	if strings.TrimSpace(s2sqlQuery) == "" {
		s2sqlQuery = "SELECT " + s.mw.Ontology().Root().Name
	}
	res, err := s.mw.Query(ctx, s2sqlQuery)
	if err != nil {
		return SPARQLResponse{}, http.StatusBadRequest, err
	}
	graph, err := s.mw.Generator().ToGraph(res)
	if err != nil {
		return SPARQLResponse{}, http.StatusInternalServerError, err
	}
	if req.Reason {
		graph, err = reason.Materialize(s.mw.Ontology().ToGraph(), graph)
		if err != nil {
			return SPARQLResponse{}, http.StatusInternalServerError, err
		}
	}
	out, err := sparql.Select(graph, req.SPARQL)
	if err != nil {
		return SPARQLResponse{}, http.StatusBadRequest, err
	}
	resp := SPARQLResponse{Vars: out.Vars}
	for _, b := range out.Bindings {
		row := map[string]string{}
		for v, term := range b {
			row[v] = term.String()
		}
		resp.Bindings = append(resp.Bindings, row)
	}
	return resp, 0, nil
}

// handleSourceHealth reports per-source circuit breaker state, so a B2B
// operator can see which partners are failing without reading logs.
func (s *Server) handleSourceHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		Error(w, http.StatusMethodNotAllowed, fmt.Errorf("transport: %s not allowed", r.Method))
		return
	}
	health := s.mw.SourceHealth()
	out := make([]map[string]any, 0, len(health))
	for _, h := range health {
		entry := map[string]any{
			"source":              h.SourceID,
			"consecutiveFailures": h.ConsecutiveFailures,
			"open":                h.Open,
			"probing":             h.Probing,
		}
		if h.Open {
			entry["retryAt"] = h.RetryAt.UTC().Format("2006-01-02T15:04:05Z07:00")
		}
		out = append(out, entry)
	}
	w.Header().Set("Content-Type", "application/json")
	WriteJSON(w, out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		Error(w, http.StatusMethodNotAllowed, fmt.Errorf("transport: %s not allowed", r.Method))
		return
	}
	stats := s.mw.Stats()
	w.Header().Set("Content-Type", "application/json")
	WriteJSON(w, map[string]any{
		"queries":        stats.Queries,
		"instances":      stats.Instances,
		"sourceErrors":   stats.SourceErrors,
		"planTimeMs":     stats.PlanTime.Milliseconds(),
		"extractTimeMs":  stats.ExtractTime.Milliseconds(),
		"generateTimeMs": stats.GenerateTime.Milliseconds(),
	})
}
