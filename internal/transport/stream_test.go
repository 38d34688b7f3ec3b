package transport

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/faultinject"
	"repro/internal/instance"
	"repro/internal/workload"
)

// TestQueryStreamEndToEnd drives GET /query/stream over a real HTTP
// connection: the streamed body must be byte-identical to the
// middleware's local serialization, the instance counts must arrive in
// pre-body headers, and the completion trailer must be present.
func TestQueryStreamEndToEnd(t *testing.T) {
	srv, mw, _ := testServer(t)
	client := NewClient(srv.URL, nil)
	ctx := context.Background()

	for _, format := range []string{"json", "ntriples", "text"} {
		f, err := instance.ParseFormat(format)
		if err != nil {
			t.Fatal(err)
		}
		var want strings.Builder
		if _, err := mw.QueryTo(ctx, &want, "SELECT product", f); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		res, err := client.QueryStream(ctx, "SELECT product", format, &got)
		if err != nil {
			t.Fatalf("QueryStream(%s): %v", format, err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: streamed body diverges from local serialization", format)
		}
		if res.Bytes != int64(got.Len()) {
			t.Errorf("%s: res.Bytes = %d, want %d", format, res.Bytes, got.Len())
		}
		if res.Matched == 0 {
			t.Errorf("%s: matched header reported 0 instances", format)
		}
	}
}

// TestQueryStreamContentType pins the media type /query/stream sends
// for every format.
func TestQueryStreamContentType(t *testing.T) {
	srv, _, _ := testServer(t)
	for format, want := range map[string]string{
		"owl":      "application/rdf+xml",
		"turtle":   "text/turtle; charset=utf-8",
		"ntriples": "application/n-triples",
		"xml":      "application/xml",
		"json":     "application/json",
		"text":     "text/plain; charset=utf-8",
	} {
		resp, err := http.Get(srv.URL + "/query/stream?" + url.Values{"q": {"SELECT product"}, "format": {format}}.Encode())
		if err != nil {
			t.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, body error %v", format, resp.StatusCode, err)
		}
		if got := resp.Header.Get("Content-Type"); got != want {
			t.Errorf("%s: Content-Type = %q, want %q", format, got, want)
		}
	}
}

// TestQueryStreamEagerMode serves a flat-ontology world whose queries
// prove merge-free: JSON and XML stream barrier-free (mode header
// "eager", counts in trailers) while the counts-first and whole-graph
// formats keep the barrier — and every body stays byte-identical to the
// local serialization.
func TestQueryStreamEagerMode(t *testing.T) {
	srv, mw := flatTestServer(t, extract.Options{})
	client := NewClient(srv.URL, nil)
	ctx := context.Background()

	wantRes, err := mw.Query(ctx, "SELECT product")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ format, wantMode string }{
		{"json", StreamModeEager},
		{"xml", StreamModeEager},
		{"text", StreamModeBarrier},
		{"owl", StreamModeBarrier},
		{"ntriples", StreamModeBarrier},
	} {
		f, err := instance.ParseFormat(tc.format)
		if err != nil {
			t.Fatal(err)
		}
		var want strings.Builder
		if _, err := mw.QueryTo(ctx, &want, "SELECT product", f); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		res, err := client.QueryStream(ctx, "SELECT product", tc.format, &got)
		if err != nil {
			t.Fatalf("QueryStream(%s): %v", tc.format, err)
		}
		if res.Mode != tc.wantMode {
			t.Errorf("%s: mode = %q, want %q", tc.format, res.Mode, tc.wantMode)
		}
		if got.String() != want.String() {
			t.Errorf("%s: streamed body diverges from local serialization", tc.format)
		}
		if res.Matched != len(wantRes.Matched) {
			t.Errorf("%s: matched = %d, want %d", tc.format, res.Matched, len(wantRes.Matched))
		}
	}
}

// TestQueryStreamRelationQueryStaysBarrier: on the full paper ontology
// (relations present) the proof declines, so even JSON keeps the
// barrier.
func TestQueryStreamRelationQueryStaysBarrier(t *testing.T) {
	srv, _, _ := testServer(t)
	client := NewClient(srv.URL, nil)
	var got bytes.Buffer
	res, err := client.QueryStream(context.Background(), "SELECT product", "json", &got)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != StreamModeBarrier {
		t.Errorf("mode = %q, want %q for a relation-bearing ontology", res.Mode, StreamModeBarrier)
	}
}

// TestQueryStreamEmptyBodyTrailers is the zero-instance regression: a
// clean NTriples result with no instances serializes to zero body bytes,
// and an uncommitted zero-byte response would be sent with
// Content-Length: 0 — net/http then drops the announced trailers and the
// client misreads a complete stream as truncated. The server commits the
// chunked framing before serializing, so the completion trailer survives
// an empty body. With a source killed, the same answer's body is its
// error report alone ('#' comments), and the trailer counts the errors.
func TestQueryStreamEmptyBodyTrailers(t *testing.T) {
	spec := workload.Spec{XMLSources: 1, WebSources: 1, RecordsPerSource: 8, Seed: 71}
	target := chaosTarget(t, spec, "web_000")
	for _, c := range []struct {
		name   string
		faults faultinject.Plan
	}{
		{"clean", faultinject.Plan{}},
		{"killed source", faultinject.Plan{target: {Permanent: true}}},
	} {
		srv := streamChaosServer(t, spec, c.faults, extract.Options{Retries: 2, RetryBackoff: -1})
		client := NewClient(srv.URL, nil)
		// Map the attributes the generated world leaves unmapped (to an
		// empty XPath), so the clean answer has nothing to report.
		for _, attr := range []string{"thing.product.watch.movement", "thing.provider.country", "thing.provider.rating"} {
			if err := client.RegisterMapping(context.Background(), WireMapping{Attribute: attr, Source: "xml_000", Language: "xpath", Code: "/catalog/none"}); err != nil {
				t.Fatal(err)
			}
		}
		var got bytes.Buffer
		res, err := client.QueryStream(context.Background(), "SELECT product WHERE brand = 'NoSuchBrand'", "ntriples", &got)
		if err != nil {
			t.Fatalf("%s: zero-instance stream must still complete: %v", c.name, err)
		}
		if res.Matched != 0 {
			t.Errorf("%s: matched = %d, want 0", c.name, res.Matched)
		}
		if len(c.faults) == 0 {
			if got.Len() != 0 || res.SourceErrors != 0 {
				t.Errorf("%s: body = %d bytes, %d source errors; want an empty body (no instances, no NTriples envelope)", c.name, got.Len(), res.SourceErrors)
			}
			continue
		}
		if res.SourceErrors == 0 {
			t.Errorf("%s: killed source's errors missing from the trailer count", c.name)
		}
		body := strings.TrimSuffix(got.String(), "\n")
		if !strings.HasPrefix(body, "# s2s:error-report\n") {
			t.Errorf("%s: body is not the error report:\n%s", c.name, body)
		}
		for _, line := range strings.Split(body, "\n") {
			if !strings.HasPrefix(line, "#") {
				t.Errorf("%s: body line %q is not a comment", c.name, line)
			}
		}
	}
}

// TestQueryStreamBadQuery checks that pre-body failures still travel as
// ordinary HTTP errors, not trailers.
func TestQueryStreamBadQuery(t *testing.T) {
	srv, _, _ := testServer(t)
	client := NewClient(srv.URL, nil)
	var sink bytes.Buffer
	_, err := client.QueryStream(context.Background(), "SELECT no_such_class", "json", &sink)
	if err == nil {
		t.Fatal("unknown class should fail")
	}
	if sink.Len() != 0 {
		t.Errorf("failed query wrote %d body bytes, want 0", sink.Len())
	}
}

// TestQueryStreamTruncationDetected simulates a server dying mid-body:
// the body ends cleanly at the HTTP layer but the completion trailer
// never arrives, and the client must report truncation instead of
// returning the short document as an answer.
func TestQueryStreamTruncationDetected(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Trailer", StreamCompleteTrailer+", "+StreamErrorsTrailer+", "+StreamErrorTrailer)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"query": "SELECT product", "matched": [`)
		// Dies here: no more body, no trailers.
	}))
	defer srv.Close()

	client := NewClient(srv.URL, nil)
	var got bytes.Buffer
	_, err := client.QueryStream(context.Background(), "SELECT product", "json", &got)
	if err == nil {
		t.Fatal("truncated stream must surface an error")
	}
	if !strings.Contains(err.Error(), "stream truncated") {
		t.Errorf("error = %v, want a stream-truncated error", err)
	}
	if got.Len() == 0 {
		t.Error("partial body should still have been copied to the writer")
	}
}

// TestQueryStreamConnectionReset kills the server connection after the
// pre-body headers but before the first body chunk — a hard reset, not
// a trailer-signalled truncation. The client's body copy fails
// mid-read, and that must surface as a streaming error, never as an
// empty successful stream.
func TestQueryStreamConnectionReset(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Trailer", StreamCompleteTrailer+", "+StreamErrorsTrailer+", "+StreamErrorTrailer)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(StreamMatchedHeader, "5")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush() // status + headers reach the client
		// Die before the first chunk: hijack the connection and slam it
		// shut, so the client sees a reset instead of clean trailers.
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		conn.Close()
	}))
	defer srv.Close()

	client := NewClient(srv.URL, nil)
	var got bytes.Buffer
	res, err := client.QueryStream(context.Background(), "SELECT product", "json", &got)
	if err == nil {
		t.Fatal("connection reset before the first chunk must surface an error")
	}
	if !strings.Contains(err.Error(), "streaming body") {
		t.Errorf("error = %v, want a streaming-body copy error", err)
	}
	if res == nil || res.Matched != 5 {
		t.Errorf("result = %+v, want the pre-body headers decoded (matched=5)", res)
	}
	if got.Len() != 0 {
		t.Errorf("writer got %d bytes, want 0 (server died before the first chunk)", got.Len())
	}
}

// TestQueryStreamMidStreamErrorTrailer simulates a serialization
// failure after part of the body went out: the server terminates the
// chunked response with the error in a trailer, and the client
// surfaces that message.
func TestQueryStreamMidStreamErrorTrailer(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Trailer", StreamCompleteTrailer+", "+StreamErrorsTrailer+", "+StreamErrorTrailer)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"query": "SELECT product", "matched": [`)
		w.Header().Set(StreamErrorTrailer, "owl: predicate has no registered prefix")
	}))
	defer srv.Close()

	client := NewClient(srv.URL, nil)
	var got bytes.Buffer
	_, err := client.QueryStream(context.Background(), "SELECT product", "json", &got)
	if err == nil {
		t.Fatal("mid-stream error trailer must surface an error")
	}
	if !strings.Contains(err.Error(), "stream failed mid-body") ||
		!strings.Contains(err.Error(), "no registered prefix") {
		t.Errorf("error = %v, want the mid-body failure with the server's message", err)
	}
}

// TestQueryStreamRejectsBadCounts: the counts come off the network, so
// one that is negative, not an integer or missing fails the exchange
// instead of reading as a number — in the pre-body headers (barrier
// mode) and in the trailers (eager mode) alike.
func TestQueryStreamRejectsBadCounts(t *testing.T) {
	const (
		matched = StreamMatchedHeader
		related = StreamRelatedHeader
		errs    = StreamErrorsTrailer
	)
	for _, tc := range []struct {
		name             string
		eager            bool
		header, trailer  map[string]string
		want             string // error substring; "" for a clean exchange
		matchedN, relatN int
	}{
		{"barrier clean", false, map[string]string{matched: "3", related: "1"}, map[string]string{errs: "0"}, "", 3, 1},
		{"eager clean", true, nil, map[string]string{errs: "2", matched: "4", related: "0"}, "", 4, 0},
		{"negative matched", false, map[string]string{matched: "-7", related: "1"}, map[string]string{errs: "0"}, `X-S2s-Matched="-7"`, 0, 0},
		{"non-integer related", false, map[string]string{matched: "3", related: "x"}, map[string]string{errs: "0"}, `X-S2s-Related="x"`, 0, 0},
		{"garbage error count", false, map[string]string{matched: "3", related: "1"}, map[string]string{errs: "garbage"}, `X-S2s-Stream-Errors="garbage"`, 0, 0},
		{"missing error count", false, map[string]string{matched: "3", related: "1"}, nil, `X-S2s-Stream-Errors=""`, 0, 0},
		{"missing matched", false, map[string]string{related: "1"}, map[string]string{errs: "0"}, `X-S2s-Matched=""`, 0, 0},
		{"eager negative matched", true, nil, map[string]string{errs: "0", matched: "-7", related: "0"}, `X-S2s-Matched="-7"`, 0, 0},
		{"eager missing related", true, nil, map[string]string{errs: "0", matched: "1"}, `X-S2s-Related=""`, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Trailer", strings.Join([]string{StreamCompleteTrailer, errs, matched, related}, ", "))
				if tc.eager {
					w.Header().Set(StreamModeHeader, StreamModeEager)
				}
				for k, v := range tc.header {
					w.Header().Set(k, v)
				}
				fmt.Fprint(w, "{}")
				w.Header().Set(StreamCompleteTrailer, "true")
				for k, v := range tc.trailer {
					w.Header().Set(k, v)
				}
			}))
			defer srv.Close()

			var got bytes.Buffer
			res, err := NewClient(srv.URL, nil).QueryStream(context.Background(), "SELECT product", "json", &got)
			if tc.want == "" {
				if err != nil || res.Matched != tc.matchedN || res.Related != tc.relatN {
					t.Fatalf("result = %+v, err = %v; want matched=%d related=%d", res, err, tc.matchedN, tc.relatN)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming %s", err, tc.want)
			}
			if got.String() != "{}" {
				t.Errorf("body = %q, want it copied through before the counts are judged", got.String())
			}
		})
	}
}

// streamChaosServer builds a middleware whose backends run through a
// fault injector, served over HTTP.
func streamChaosServer(t *testing.T, spec workload.Spec, plan faultinject.Plan, opts extract.Options) *httptest.Server {
	t.Helper()
	world := workload.MustGenerate(spec)
	inj := faultinject.New(1337, plan)
	mw, err := core.New(core.Config{
		Ontology: world.Ontology,
		Backends: inj.WrapBackends(extract.FromCatalog(world.Catalog)),
		Extract:  opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := world.Apply(mw); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(mw))
	t.Cleanup(srv.Close)
	return srv
}

// chaosTarget resolves a generated source ID to its injector target.
func chaosTarget(t *testing.T, spec workload.Spec, sourceID string) string {
	t.Helper()
	probe := workload.MustGenerate(spec)
	for _, def := range probe.Definitions {
		if def.ID == sourceID {
			return faultinject.Key(def)
		}
	}
	t.Fatalf("no definition for source %s", sourceID)
	return ""
}

// TestQueryStreamChaosFailThenRecover injects a fail-twice-then-recover
// fault under a retry budget that absorbs it: the stream must complete
// with zero source errors — mid-extraction transients never truncate
// the response.
func TestQueryStreamChaosFailThenRecover(t *testing.T) {
	spec := workload.Spec{XMLSources: 1, WebSources: 1, RecordsPerSource: 8, Seed: 71}
	target := chaosTarget(t, spec, "web_000")
	srv := streamChaosServer(t, spec,
		faultinject.Plan{target: {FailFirst: 2}},
		extract.Options{Retries: 3, RetryBackoff: -1})

	client := NewClient(srv.URL, nil)
	var got bytes.Buffer
	res, err := client.QueryStream(context.Background(), "SELECT product", "json", &got)
	if err != nil {
		t.Fatalf("retries should have absorbed the transient fault: %v", err)
	}
	if res.SourceErrors != 0 {
		t.Errorf("SourceErrors = %d, want 0 after recovery", res.SourceErrors)
	}
	if res.Matched == 0 {
		t.Error("recovered stream matched no instances")
	}
}

// TestQueryStreamChaosSourceErrorInTrailer kills one source outright:
// the stream still completes (the healthy replica answers) and the
// extraction failure is reported as data — an error count in the
// trailer, detail in the body — never as a truncated response.
func TestQueryStreamChaosSourceErrorInTrailer(t *testing.T) {
	spec := workload.Spec{XMLSources: 1, WebSources: 1, RecordsPerSource: 8, Seed: 71}
	target := chaosTarget(t, spec, "web_000")
	srv := streamChaosServer(t, spec,
		faultinject.Plan{target: {Permanent: true}},
		extract.Options{Retries: 2, RetryBackoff: -1})

	client := NewClient(srv.URL, nil)
	var got bytes.Buffer
	res, err := client.QueryStream(context.Background(), "SELECT product", "json", &got)
	if err != nil {
		t.Fatalf("a dead replica must not fail the stream: %v", err)
	}
	if res.SourceErrors == 0 {
		t.Error("killed source's errors missing from the trailer count")
	}
	if !strings.Contains(got.String(), `"errors"`) {
		t.Error("JSON body should carry the error detail")
	}
	if res.Matched == 0 {
		t.Error("healthy source matched no instances")
	}
}
