package integration

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/workload"
)

// TestEveryRouteSerializesUnderItsQuery is the route table of the one
// answer path: every way to answer a query — the HTTP routes, the
// cluster coordinator, and the local entry points — serializes as a
// stage of that query's own query span, so every route reports the
// same stages and s2s_query_duration_seconds covers serialization on
// all of them. On the eager path generation and serialization are one
// stage, the generate span marked eager=true.
func TestEveryRouteSerializesUnderItsQuery(t *testing.T) {
	// The flat world proves its queries merge-free, so a JSON stream is
	// eager and an OWL stream keeps the barrier.
	mw, _ := build(t, workload.Spec{
		DBSources: 1, XMLSources: 1, WebSources: 1, TextSources: 1,
		RecordsPerSource: 5, Seed: 93, FlatOntology: true,
	}, extract.Options{})
	srv := httptest.NewServer(transport.NewServer(mw))
	defer srv.Close()
	client := transport.NewClient(srv.URL, nil)
	rig := startClusterRig(t, workload.Spec{
		DBSources: 2, XMLSources: 2, WebSources: 2, TextSources: 2,
		RecordsPerSource: 5, Seed: 94,
	}, cluster.Options{}, nil)
	ctx := context.Background()
	const q = "SELECT product"

	stream := func(format, mode string) func() error {
		return func() error {
			res, err := client.QueryStream(ctx, q, format, io.Discard)
			if err == nil && res.Mode != mode {
				err = fmt.Errorf("stream mode = %q, want %q", res.Mode, mode)
			}
			return err
		}
	}
	for _, route := range []struct {
		name string
		mw   *core.Middleware
		// stage is the span that serializes each answer.
		stage   string
		queries int
		run     func() error
	}{
		{"/query", mw, "serialize", 1, func() error {
			_, err := client.Query(ctx, q, "owl")
			return err
		}},
		{"/query/stream eager", mw, "generate", 1, stream("json", transport.StreamModeEager)},
		{"/query/stream barrier", mw, "serialize", 1, stream("owl", transport.StreamModeBarrier)},
		{"/query/batch", mw, "serialize", 2, func() error {
			results, err := client.QueryBatch(ctx, []string{q, "SELECT product WHERE brand='Seiko'"}, "owl")
			for _, r := range results {
				if err == nil {
					err = r.Err
				}
			}
			return err
		}},
		{"/cluster/query", rig.coordMW, "serialize", 1, func() error {
			_, err := rig.queryCluster(q, "json")
			return err
		}},
		{"QueryTo", mw, "serialize", 1, func() error {
			_, err := mw.QueryTo(ctx, io.Discard, q, instance.FormatOWL)
			return err
		}},
		{"QueryToStream", mw, "generate", 1, func() error {
			_, _, err := mw.QueryToStream(ctx, io.Discard, q, instance.FormatJSON)
			return err
		}},
	} {
		sums := func() (query, serialize float64) {
			_, qh := route.mw.Metrics().Lookup(obs.MetricQueryDuration, nil)
			_, sh := route.mw.Metrics().Lookup(obs.MetricStageDuration, obs.Labels{"stage": "serialize"})
			return qh.Sum(), sh.Sum()
		}
		query0, serialize0 := sums()
		if err := route.run(); err != nil {
			t.Fatalf("%s: %v", route.name, err)
		}
		query1, serialize1 := sums()
		if query1-query0 < serialize1-serialize0 {
			t.Errorf("%s: s2s_query_duration_seconds grew by %gs, less than the serialize stage's %gs",
				route.name, query1-query0, serialize1-serialize0)
		}

		last := route.mw.Tracer().Last(1)
		if len(last) != 1 {
			t.Fatalf("%s: no trace recorded", route.name)
		}
		queries := 0
		last[0].Walk(func(s *obs.Span) {
			stages := 0
			for _, c := range s.Children {
				if c.Name != "serialize" && (c.Name != "generate" || c.Attrs["eager"] != "true") {
					continue
				}
				stages++
				if s.Name != "query" {
					t.Errorf("%s: %s span hangs off %s, not off its query span", route.name, c.Name, s.Name)
				} else if c.Name != route.stage {
					t.Errorf("%s: the query serializes in a %s span, want %s", route.name, c.Name, route.stage)
				}
			}
			if s.Name == "query" {
				queries++
				if stages != 1 {
					t.Errorf("%s: query span %q has %d serializing stages, want 1", route.name, s.Attrs["query"], stages)
				}
			}
		})
		if queries != route.queries {
			t.Errorf("%s: trace %s holds %d query spans, want %d", route.name, last[0].Name, queries, route.queries)
		}
	}
}
