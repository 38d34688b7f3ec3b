package integration

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/instance"
	"repro/internal/transport"
	"repro/internal/workload"
)

// TestEnvelopeBytesMatchEncodingJSON pins the wire bytes of the JSON
// envelope routes: for /query and /cluster/query, in every format, the
// raw response is exactly what json.NewEncoder(w).Encode writes for
// the envelope built from QueryTo's document over the same middleware.
// With trace on, the bytes up to the end of body must match (the span
// tree that follows carries timings).
func TestEnvelopeBytesMatchEncodingJSON(t *testing.T) {
	mw, _ := build(t, workload.Spec{
		DBSources: 1, XMLSources: 1, WebSources: 1, TextSources: 1,
		RecordsPerSource: 6, Seed: 95,
	}, extract.Options{})
	srv := httptest.NewServer(transport.NewServer(mw))
	defer srv.Close()
	rig := startClusterRig(t, workload.Spec{
		DBSources: 2, XMLSources: 2, WebSources: 2, TextSources: 2,
		RecordsPerSource: 5, Seed: 96,
	}, cluster.Options{}, nil)
	const q = "SELECT product WHERE brand='Seiko'"

	for _, route := range []struct {
		path string
		url  string
		mw   *core.Middleware
	}{
		{"/query", srv.URL + "/query", mw},
		{"/cluster/query", rig.servers["n1"].URL + "/cluster/query", rig.coordMW},
	} {
		for _, format := range []instance.Format{
			instance.FormatOWL, instance.FormatTurtle, instance.FormatNTriples,
			instance.FormatXML, instance.FormatJSON, instance.FormatText,
		} {
			var doc strings.Builder
			res, err := route.mw.QueryTo(context.Background(), &doc, q, format)
			if err != nil {
				t.Fatalf("QueryTo %s: %v", format, err)
			}
			if len(res.Matched) == 0 {
				t.Fatalf("%s: %q matches nothing; the body would be trivial", route.path, q)
			}
			for _, trace := range []bool{false, true} {
				u := route.url + "?q=" + url.QueryEscape(q) + "&format=" + format.String()
				if trace {
					u += "&trace=1"
				}
				raw := getRaw(t, u)
				var got cluster.QueryResponse
				if err := json.Unmarshal(raw, &got); err != nil {
					t.Fatalf("%s %s trace=%v: decoding: %v", route.path, format, trace, err)
				}
				env := transport.QueryResponse{
					Query:   res.Plan.Query.String(),
					Format:  format.String(),
					Matched: len(res.Matched),
					Related: len(res.Related),
					Missing: res.Missing,
					Body:    doc.String(),
				}
				for _, e := range res.Errors {
					env.Errors = append(env.Errors, e.Error())
				}
				var want bytes.Buffer
				if trace {
					if err := json.NewEncoder(&want).Encode(env); err != nil {
						t.Fatal(err)
					}
					// Up to and including body's closing quote.
					want.Truncate(want.Len() - len("}\n"))
					if !bytes.HasPrefix(raw, want.Bytes()) {
						t.Errorf("%s %s trace=1: envelope up to body differs from encoding/json:\n got %.300q\nwant %.300q",
							route.path, format, raw, want.Bytes())
					}
					continue
				}
				var v any = env
				if route.path == "/cluster/query" {
					v = cluster.QueryResponse{QueryResponse: env, Cluster: got.Cluster}
				}
				if err := json.NewEncoder(&want).Encode(v); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(raw, want.Bytes()) {
					t.Errorf("%s %s: envelope differs from encoding/json:\n got %.300q\nwant %.300q",
						route.path, format, raw, want.Bytes())
				}
			}
		}
	}
}

// getRaw GETs u and returns the body of a 200 response.
func getRaw(t *testing.T, u string) []byte {
	t.Helper()
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", u, resp.StatusCode, raw)
	}
	return raw
}
