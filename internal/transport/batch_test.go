package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/instance"
	"repro/internal/workload"
)

// flatTestServer serves a world built on the relation-free paper
// ontology, so its queries prove merge-free and /query/stream answers
// them barrier-free.
func flatTestServer(t *testing.T, opts extract.Options) (*httptest.Server, *core.Middleware) {
	t.Helper()
	world := workload.MustGenerate(workload.Spec{
		DBSources: 1, XMLSources: 1, WebSources: 1, TextSources: 1,
		RecordsPerSource: 10, Seed: 21,
		FlatOntology: true,
	})
	mw, err := core.NewWithCatalog(world.Ontology, world.Catalog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := world.Apply(mw); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(mw))
	t.Cleanup(srv.Close)
	return srv, mw
}

// TestQueryBatchEndToEnd drives POST /query/batch over a real
// connection: every per-query body must be byte-identical to the
// single-query serialization of the same middleware, with the counts in
// the per-query trailer frames.
func TestQueryBatchEndToEnd(t *testing.T) {
	srv, mw, _ := testServer(t)
	client := NewClient(srv.URL, nil)
	ctx := context.Background()

	queries := []string{
		"SELECT product",
		"SELECT product WHERE brand='Seiko'",
		"SELECT provider",
	}
	for _, format := range []string{"json", "xml", "ntriples"} {
		results, err := client.QueryBatch(ctx, queries, format)
		if err != nil {
			t.Fatalf("QueryBatch(%s): %v", format, err)
		}
		if len(results) != len(queries) {
			t.Fatalf("%s: results = %d, want %d", format, len(results), len(queries))
		}
		f, err := instance.ParseFormat(format)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			if results[i].Err != nil {
				t.Fatalf("%s %q: %v", format, q, results[i].Err)
			}
			var want strings.Builder
			if _, err := mw.QueryTo(ctx, &want, q, f); err != nil {
				t.Fatal(err)
			}
			if string(results[i].Body) != want.String() {
				t.Errorf("%s %q: batch body diverges from single-query serialization", format, q)
			}
			res, err := mw.Query(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if results[i].Matched != len(res.Matched) || results[i].Related != len(res.Related) {
				t.Errorf("%s %q: counts = %d/%d, want %d/%d",
					format, q, results[i].Matched, results[i].Related, len(res.Matched), len(res.Related))
			}
		}
	}
}

// TestQueryBatchPartialFailure puts a malformed query between two good
// ones: the bad query must fail alone, with its parse error in its
// trailer frame and no body, while its siblings answer normally.
func TestQueryBatchPartialFailure(t *testing.T) {
	srv, _, _ := testServer(t)
	client := NewClient(srv.URL, nil)

	queries := []string{"SELECT product", "SELEC nonsense", "SELECT provider"}
	results, err := client.QueryBatch(context.Background(), queries, "json")
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("good queries failed: %v / %v", results[0].Err, results[2].Err)
	}
	if results[0].Matched == 0 || len(results[0].Body) == 0 {
		t.Error("first query returned no instances")
	}
	if results[1].Err == nil {
		t.Fatal("malformed query did not fail")
	}
	if len(results[1].Body) != 0 {
		t.Errorf("failed query has %d body bytes, want 0", len(results[1].Body))
	}
}

// TestQueryBatchFramesContiguous reads the raw frames of a batch with a
// malformed query between two good ones: each query's frames must be
// contiguous and in query order, so the failed query's trailer comes
// before the next query begins.
func TestQueryBatchFramesContiguous(t *testing.T) {
	srv, _, _ := testServer(t)
	body, err := json.Marshal(BatchRequest{Queries: []string{"SELECT product", "SELEC nonsense", "SELECT provider"}, Format: "json"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/query/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Each frame reads as its tag and index; a run of chunk frames for
	// one query reads as one.
	var frames []string
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		if err == io.EOF && line == "" {
			break
		}
		if err != nil {
			t.Fatalf("reading frame: %v", err)
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			t.Fatalf("malformed frame %q", line)
		}
		if f[0] == "=c" {
			size, err := strconv.Atoi(f[2])
			if err != nil {
				t.Fatalf("malformed chunk frame %q", line)
			}
			if _, err := io.CopyN(io.Discard, br, int64(size)); err != nil {
				t.Fatalf("reading chunk: %v", err)
			}
		}
		frame := f[0] + " " + f[1]
		if f[0] == "=c" && len(frames) > 0 && frames[len(frames)-1] == frame {
			continue
		}
		frames = append(frames, frame)
	}
	want := []string{"=n 3", "=b 0", "=c 0", "=t 0", "=t 1", "=b 2", "=c 2", "=t 2"}
	if fmt.Sprint(frames) != fmt.Sprint(want) {
		t.Errorf("frames = %q, want %q", frames, want)
	}
}

// TestQueryBatchRejectsBadTrailers points the client at endpoints whose
// batch response frames a query's body but no usable trailer: a missing
// trailer frame, or a count that is not a non-negative integer, must be
// an error rather than a success with zero counts.
func TestQueryBatchRejectsBadTrailers(t *testing.T) {
	for name, trailer := range map[string]map[string]string{
		"no trailer":     nil,
		"negative count": {batchKeyMatched: "-1", batchKeyRelated: "0", batchKeyErrors: "0"},
		"non-integer":    {batchKeyMatched: "1", batchKeyRelated: "x", batchKeyErrors: "0"},
		"missing count":  {batchKeyMatched: "1", batchKeyRelated: "0"},
	} {
		t.Run(name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", BatchContentType)
				w.Header().Set("Trailer", StreamCompleteTrailer)
				mux := instance.NewMuxWriter(w)
				if mux.Header(1) != nil || mux.Begin(0) != nil {
					return
				}
				if _, err := mux.Stream(0).Write([]byte("{}")); err != nil {
					return
				}
				if trailer != nil && mux.Trailer(0, trailer) != nil {
					return
				}
				w.Header().Set(StreamCompleteTrailer, "true")
			}))
			defer srv.Close()

			results, err := NewClient(srv.URL, nil).QueryBatch(context.Background(), []string{"SELECT product"}, "json")
			if err == nil {
				t.Fatalf("accepted as %+v", results[0])
			}
		})
	}
}

// TestQueryBatchBoundsQueryBodies points the client at an endpoint that
// frames 17 MiB of body for one query: QueryBatch must refuse it, as a
// single /query reply above maxResponseBody is refused, instead of
// reading it all into memory.
func TestQueryBatchBoundsQueryBodies(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", BatchContentType)
		w.Header().Set("Trailer", StreamCompleteTrailer)
		mux := instance.NewMuxWriter(w)
		if mux.Header(1) != nil || mux.Begin(0) != nil {
			return
		}
		chunk := bytes.Repeat([]byte("x"), instance.DefaultChunkSize)
		for sent := 0; sent < 17<<20; sent += len(chunk) {
			if _, err := mux.Stream(0).Write(chunk); err != nil {
				return // the client hung up
			}
		}
		if mux.Trailer(0, map[string]string{batchKeyMatched: "1"}) != nil {
			return
		}
		w.Header().Set(StreamCompleteTrailer, "true")
	}))
	defer srv.Close()

	results, err := NewClient(srv.URL, nil).QueryBatch(context.Background(), []string{"SELECT product"}, "json")
	if err == nil {
		t.Fatalf("a %d-byte query body above the %d-byte bound was read (%d bytes returned)", 17<<20, maxResponseBody, len(results[0].Body))
	}
}

// TestQueryBatchRejectsBadRequests covers the whole-exchange failures:
// empty batch, oversized batch, wrong method, bad format.
func TestQueryBatchRejectsBadRequests(t *testing.T) {
	srv, _, _ := testServer(t)
	client := NewClient(srv.URL, nil)
	ctx := context.Background()

	if _, err := client.QueryBatch(ctx, nil, "json"); err == nil || !strings.Contains(err.Error(), "empty batch") {
		t.Errorf("empty batch: err = %v", err)
	}
	big := make([]string, MaxBatchQueries+1)
	for i := range big {
		big[i] = "SELECT product"
	}
	if _, err := client.QueryBatch(ctx, big, "json"); err == nil || !strings.Contains(err.Error(), "exceeds the limit") {
		t.Errorf("oversized batch: err = %v", err)
	}
	if _, err := client.QueryBatch(ctx, []string{"SELECT product"}, "no-such-format"); err == nil {
		t.Error("bad format accepted")
	}
	resp, err := http.Get(srv.URL + "/query/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query/batch = %d, want 405", resp.StatusCode)
	}
}
