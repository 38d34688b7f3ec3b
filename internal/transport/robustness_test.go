package transport

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasource"
	"repro/internal/extract"
	"repro/internal/faultinject"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestClientRetriesGetOn503 exercises the idempotent-GET retry loop:
// the server sheds twice with 503 + Retry-After, then answers.
func TestClientRetriesGetOn503(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"overloaded"}`)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `[]`)
	}))
	defer srv.Close()

	client := NewClient(srv.URL, nil)
	if _, err := client.Sources(context.Background()); err != nil {
		t.Fatalf("GET should have recovered after retries: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3 (1 + 2 retries)", got)
	}
}

// TestClientDoesNotRetryPost ensures mutations are never replayed.
func TestClientDoesNotRetryPost(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"overloaded"}`)
	}))
	defer srv.Close()

	client := NewClient(srv.URL, nil)
	if _, err := client.Query(context.Background(), "SELECT product", "json"); err == nil {
		t.Fatal("POST against a 503 server should fail")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d POST calls, want 1 (mutations must not be replayed)", got)
	}
}

func TestClientRetriesDisabled(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	client := NewClient(srv.URL, nil)
	client.SetRetries(0)
	if _, err := client.Sources(context.Background()); err == nil {
		t.Fatal("expected failure with retries disabled")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d calls, want 1", got)
	}
}

// slowDBMiddleware builds a middleware over world whose database
// sources answer d late — faultinject latency on each DSN, paid once per
// query by the run's shared document layer.
func slowDBMiddleware(t *testing.T, world *workload.World, d time.Duration) *core.Middleware {
	t.Helper()
	plan := faultinject.Plan{}
	for _, def := range world.Definitions {
		if def.Kind == datasource.KindDatabase {
			plan[faultinject.Key(def)] = faultinject.Fault{AddLatency: d}
		}
	}
	mw, err := core.New(core.Config{
		Ontology: world.Ontology,
		Backends: faultinject.New(1, plan).WrapBackends(extract.FromCatalog(world.Catalog)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := world.Apply(mw); err != nil {
		t.Fatal(err)
	}
	return mw
}

// TestServerShedsAboveConcurrencyCap saturates a capped server with one
// slow in-flight query and verifies the next request is shed with 503 +
// Retry-After and counted under s2s_query_total{outcome="shed"}.
func TestServerShedsAboveConcurrencyCap(t *testing.T) {
	world := workload.MustGenerate(workload.Spec{
		DBSources: 1, XMLSources: 1, WebSources: 1, TextSources: 1,
		RecordsPerSource: 10, Seed: 21,
	})
	// The slow database keeps the in-flight query holding the single
	// slot while the second request arrives.
	mw := slowDBMiddleware(t, world, 300*time.Millisecond)
	srv := httptest.NewServer(NewServer(mw, WithMaxConcurrentQueries(1)))
	defer srv.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(srv.URL + "/query?q=SELECT+product&format=json")
		if err == nil {
			resp.Body.Close()
		}
	}()
	time.Sleep(50 * time.Millisecond) // let the slow query occupy the slot

	resp, err := http.Get(srv.URL + "/query?q=SELECT+product&format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (shed)", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || !strings.Contains(e.Error, "capacity") {
		t.Errorf("shed body = %+v (%v)", e, err)
	}
	wg.Wait()

	got := mw.Metrics().Counter(obs.MetricQueryTotal, obs.Labels{"outcome": obs.OutcomeShed}).Value()
	if got != 1 {
		t.Errorf("shed counter = %v, want 1", got)
	}
}

// TestSPARQLShedsAboveConcurrencyCap: /sparql runs a full S2SQL query,
// so it takes a concurrent-query slot like /query. With the only slot
// held by a slow /query, a POST /sparql is shed with 503 + Retry-After
// instead of running beside it.
func TestSPARQLShedsAboveConcurrencyCap(t *testing.T) {
	world := workload.MustGenerate(workload.Spec{
		DBSources: 1, XMLSources: 1, RecordsPerSource: 10, Seed: 23,
	})
	mw := slowDBMiddleware(t, world, 300*time.Millisecond)
	srv := httptest.NewServer(NewServer(mw, WithMaxConcurrentQueries(1)))
	defer srv.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(srv.URL + "/query?q=SELECT+product&format=json")
		if err == nil {
			resp.Body.Close()
		}
	}()
	time.Sleep(50 * time.Millisecond) // let the slow query occupy the slot

	resp, err := http.Post(srv.URL+"/sparql", "application/json",
		strings.NewReader(`{"sparql": "PREFIX ont: <http://s2s.uma.pt/watch#> SELECT ?x WHERE { ?x a ont:product . }"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	wg.Wait()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (shed)", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
}

// TestShedRetryAfterJitterSpreadsRetries holds a capped server's only
// query slot and sheds a burst of requests: the advertised Retry-After
// values must spread across [base, base+jitter] rather than
// resynchronizing every victim onto the same retry instant, and the
// client's retry delay must follow each advertised value.
func TestShedRetryAfterJitterSpreadsRetries(t *testing.T) {
	world := workload.MustGenerate(workload.Spec{
		DBSources: 1, RecordsPerSource: 5, Seed: 22,
	})
	mw := slowDBMiddleware(t, world, 500*time.Millisecond)
	ts := NewServer(mw, WithMaxConcurrentQueries(1))
	// Deterministic jitter seam: the shed burst draws 0,1,2,0,1,2,...
	var draws atomic.Int32
	ts.shedRandMu.Lock()
	ts.shedRandIntn = func(n int) int { return int(draws.Add(1)-1) % n }
	ts.shedRandMu.Unlock()
	srv := httptest.NewServer(ts)
	defer srv.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(srv.URL + "/query?q=SELECT+product&format=json")
		if err == nil {
			resp.Body.Close()
		}
	}()
	time.Sleep(50 * time.Millisecond) // let the slow query occupy the slot

	base := int(ts.shedRetryAfter / time.Second)
	seen := map[int]int{}
	client := NewClient(srv.URL, nil)
	for i := 0; i < 6; i++ {
		resp, err := http.Get(srv.URL + "/query?q=SELECT+product&format=json")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			resp.Body.Close()
			t.Fatalf("status = %d, want 503 (shed)", resp.StatusCode)
		}
		secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil {
			t.Fatalf("Retry-After = %q: %v", resp.Header.Get("Retry-After"), err)
		}
		if secs < base || secs > base+ts.shedJitterSecs {
			t.Errorf("Retry-After = %d, want in [%d, %d]", secs, base, base+ts.shedJitterSecs)
		}
		seen[secs]++
		// The client schedules its retry off the advertised value, so
		// jittered headers directly spread the retries out.
		if got := client.retryDelay(resp, 0); got != time.Duration(secs)*time.Second {
			t.Errorf("client retry delay = %v, want %ds (the advertised Retry-After)", got, secs)
		}
		resp.Body.Close()
	}
	if len(seen) < 2 {
		t.Errorf("shed burst advertised a single Retry-After value %v; jitter must spread retries", seen)
	}
	wg.Wait()
}

// TestHealthReportsDegradedState drives /healthz through its states:
// "ok" with the breaker and shed gauges at rest, then "degraded" once
// a source's circuit breaker opens.
func TestHealthReportsDegradedState(t *testing.T) {
	world := workload.MustGenerate(workload.Spec{
		WebSources: 1, RecordsPerSource: 5, Seed: 23,
	})
	backends := extract.FromCatalog(world.Catalog)
	var dead atomic.Bool
	inner := backends.Pages
	backends.Pages = fetcherFunc(func(ctx context.Context, url string) (string, error) {
		if dead.Load() {
			return "", fmt.Errorf("partner offline")
		}
		return inner(ctx, url)
	})
	mw, err := core.New(core.Config{
		Ontology: world.Ontology,
		Backends: backends,
		Extract: extract.Options{
			Retries: 0,
			Breaker: extract.BreakerOptions{Threshold: 1, Cooldown: time.Minute},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := world.Apply(mw); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(mw, WithMaxConcurrentQueries(4)))
	defer srv.Close()

	getHealth := func() HealthStatus {
		t.Helper()
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz status = %d", resp.StatusCode)
		}
		var h HealthStatus
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}

	h := getHealth()
	if h.Status != "ok" || h.BreakersOpen != 0 {
		t.Fatalf("initial health = %+v, want ok with no open breakers", h)
	}
	if h.ShedCapacity != 4 || h.ShedInFlight != 0 {
		t.Errorf("shed gauges = %d/%d, want 0/4", h.ShedInFlight, h.ShedCapacity)
	}

	// Kill the partner and run a query to trip its breaker.
	dead.Store(true)
	resp, err := http.Get(srv.URL + "/query?q=SELECT+product&format=json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	h = getHealth()
	if h.Status != "degraded" || h.BreakersOpen == 0 {
		t.Fatalf("post-trip health = %+v, want degraded with an open breaker", h)
	}
}

// fetcherFunc is a page backend written inline.
type fetcherFunc = extract.Backend[string]

// TestAnswerQueryTracesSerializationFailure pins the envelope routes'
// shared helper: when serialization fails the client gets a 500 with
// the JSON error envelope and both the recorded root span and the query
// span under it say outcome=error, not ok; a failure before
// serialization starts is a 400. A format no serializer knows fails
// after the answer is generated, as any serialization failure does. A
// peer that hangs up mid-body is traced as an error too, and nothing is
// written after the failed write.
func TestAnswerQueryTracesSerializationFailure(t *testing.T) {
	_, mw, _ := testServer(t)
	for _, tc := range []struct {
		req    core.Request
		code   int
		hangup bool
	}{
		{core.Request{Query: "SELECT product", Format: instance.Format(0)}, http.StatusInternalServerError, false},
		{core.Request{Query: "SELECT no_such_class", Format: instance.FormatOWL}, http.StatusBadRequest, false},
		{core.Request{Query: "SELECT product", Format: instance.FormatOWL}, http.StatusOK, true},
	} {
		rec := &hangupRecorder{ResponseRecorder: httptest.NewRecorder(), hangup: tc.hangup}
		ctx, root := BeginRequest(mw, rec, httptest.NewRequest(http.MethodGet, "/query?q=x", nil), "http_query")
		AnswerQuery(ctx, rec, root, mw, tc.req, false)
		if rec.Code != tc.code {
			t.Errorf("%q as %v: status = %d, want %d", tc.req.Query, tc.req.Format, rec.Code, tc.code)
		}
		if tc.hangup {
			if rec.writes != 1 {
				t.Errorf("%q as %v: %d writes after the peer hung up, want the 1 that failed", tc.req.Query, tc.req.Format, rec.writes)
			}
		} else {
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Errorf("%q as %v: body %q is not the JSON error envelope", tc.req.Query, tc.req.Format, rec.Body)
			}
		}
		last := mw.Tracer().Last(1)
		if len(last) != 1 || last[0].Name != "http_query" {
			t.Fatalf("recorded traces = %v, want the http_query root", last)
		}
		last[0].Walk(func(s *obs.Span) {
			if (s.Name == "http_query" || s.Name == "query") && s.Attrs["outcome"] != "error" {
				t.Errorf("%q as %v: %s span outcome = %q, want %q", tc.req.Query, tc.req.Format, s.Name, s.Attrs["outcome"], "error")
			}
		})
	}
}

// hangupRecorder is a ResponseRecorder whose peer, when hangup is set,
// has gone: every write fails. It counts the writes attempted.
type hangupRecorder struct {
	*httptest.ResponseRecorder
	hangup bool
	writes int
}

func (h *hangupRecorder) Write(p []byte) (int, error) {
	h.writes++
	if h.hangup {
		h.ResponseRecorder.WriteHeader(http.StatusOK)
		return 0, errors.New("write: broken pipe")
	}
	return h.ResponseRecorder.Write(p)
}

// TestOversizedBodiesRefused: POST bodies are bounded by MaxRequestBody
// on every decoding route; /query and /query/batch refuse a larger one
// with a 4xx instead of reading it into memory.
func TestOversizedBodiesRefused(t *testing.T) {
	srv, _, _ := testServer(t)
	huge := strings.Repeat("x", MaxRequestBody+1)
	for path, body := range map[string]string{
		"/query":       `{"query":"SELECT product","format":"` + huge + `"}`,
		"/query/batch": `{"queries":["SELECT product"],"format":"` + huge + `"}`,
	} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body: status = %d, want 413", path, len(body), resp.StatusCode)
		}
	}
}

// TestOversizedClientResponsesRefused points a Client at an endpoint
// that answers with valid JSON longer than maxResponseBody — a query
// answer, a query error, and the ontology document — and checks that
// each read fails instead of decoding the body.
func TestOversizedClientResponsesRefused(t *testing.T) {
	huge := strings.Repeat("x", maxResponseBody)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/query":
			var req QueryRequest
			if !DecodeBody(w, r, &req) {
				return
			}
			w.Header().Set("Content-Type", "application/json")
			if req.Query == "fail" {
				w.WriteHeader(http.StatusInternalServerError)
				fmt.Fprintf(w, `{"error":%q}`, huge)
				return
			}
			fmt.Fprintf(w, `{"query":%q,"body":%q}`, req.Query, huge)
		case "/ontology":
			fmt.Fprint(w, huge+"x")
		}
	}))
	defer srv.Close()
	ctx := context.Background()

	client := NewClient(srv.URL, nil)
	if _, err := client.Query(ctx, "SELECT product", "json"); err == nil {
		t.Error("a query answer above the bound was decoded")
	}
	_, err := client.Query(ctx, "fail", "json")
	if err == nil || len(err.Error()) > 1000 {
		t.Errorf("an error body above the bound was decoded into the error (%d bytes)", len(fmt.Sprint(err)))
	}
	if _, err := client.Ontology(ctx); err == nil {
		t.Error("an ontology document above the bound was read")
	}
}
