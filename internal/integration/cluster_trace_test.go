package integration

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestClusterExtractFederatedTrace checks that scatter-gather
// sub-requests federate tracing: a member serving /cluster/extract
// joins the coordinator's trace (via the trace headers the coordinator
// forwards on the sub-request) instead of starting its own, so the
// whole scattered query shares one trace ID and each member root hangs
// off a span of the coordinator's tree.
func TestClusterExtractFederatedTrace(t *testing.T) {
	rig := startClusterRig(t, workload.Spec{
		DBSources: 2, XMLSources: 2, WebSources: 2, TextSources: 2,
		RecordsPerSource: 5, Seed: 91,
	}, cluster.Options{}, nil)

	if _, err := rig.queryCluster("SELECT product", "json"); err != nil {
		t.Fatal(err)
	}

	coord := rig.mws["n1"].Tracer().Last(1)
	if len(coord) == 0 {
		t.Fatal("coordinator recorded no trace")
	}
	root := coord[0]
	if root.Name != "http_query" {
		t.Fatalf("coordinator root span = %q, want http_query", root.Name)
	}
	coordSpans := map[string]bool{}
	root.Walk(func(s *obs.Span) { coordSpans[s.ID] = true })

	federated := 0
	for _, id := range []string{"n2", "n3"} {
		for _, tr := range rig.mws[id].Tracer().Last(16) {
			if tr.Name != "cluster_extract" {
				continue
			}
			if tr.TraceID != root.TraceID {
				t.Errorf("member %s cluster_extract trace id = %q, coordinator trace id = %q — not one trace",
					id, tr.TraceID, root.TraceID)
				continue
			}
			if !coordSpans[tr.ParentID] {
				t.Errorf("member %s cluster_extract parent %q is not a span of the coordinator's tree",
					id, tr.ParentID)
			}
			sources := 0
			tr.Walk(func(s *obs.Span) {
				if s.TraceID != root.TraceID {
					t.Errorf("member %s span %q has trace id %q, want %q", id, s.Name, s.TraceID, root.TraceID)
				}
				if len(s.Name) > 7 && s.Name[:7] == "source:" {
					sources++
				}
			})
			if sources == 0 {
				t.Errorf("member %s cluster_extract trace has no per-source spans", id)
			}
			federated++
		}
	}
	if federated == 0 {
		t.Fatal("no member recorded a cluster_extract sub-request trace")
	}
}

// TestClusterCoordinatorExtractStage checks that the scatter-gather is
// the coordinator's extract stage, like a single node's extraction: the
// coordinator's query span has exactly one extract child, every
// member's cluster_extract root hangs off it, and the stage's time
// reaches the coordinator's Stats (read from its metrics registry).
func TestClusterCoordinatorExtractStage(t *testing.T) {
	rig := startClusterRig(t, workload.Spec{
		DBSources: 2, XMLSources: 2, WebSources: 2, TextSources: 2,
		RecordsPerSource: 5, Seed: 92,
	}, cluster.Options{}, nil)

	if _, err := rig.queryCluster("SELECT product", "json"); err != nil {
		t.Fatal(err)
	}
	coordMW := rig.mws["n1"]
	if s := coordMW.Stats(); s.Queries != 1 || s.ExtractTime <= 0 {
		t.Errorf("coordinator stats = %+v, want 1 query and ExtractTime > 0", s)
	}

	last := coordMW.Tracer().Last(1)
	if len(last) == 0 {
		t.Fatal("coordinator recorded no trace")
	}
	var extracts []*obs.Span
	last[0].Walk(func(s *obs.Span) {
		if s.Name != "query" {
			return
		}
		for _, c := range s.Children {
			if c.Name == "extract" {
				extracts = append(extracts, c)
			}
		}
	})
	if len(extracts) != 1 {
		t.Fatalf("coordinator query span has %d extract children, want 1", len(extracts))
	}
	stage := extracts[0]

	served := 0
	for _, id := range []string{"n2", "n3"} {
		for _, tr := range rig.mws[id].Tracer().Last(16) {
			if tr.Name != "cluster_extract" || tr.TraceID != last[0].TraceID {
				continue
			}
			served++
			if tr.ParentID != stage.ID {
				t.Errorf("member %s cluster_extract parent = %q, want the coordinator's extract span %q", id, tr.ParentID, stage.ID)
			}
		}
	}
	if served == 0 {
		t.Fatal("no member served a sub-request of the query")
	}
}

// TestClusterQueryReturnsTrace: /cluster/query honours the request's
// trace flag as /query does — the envelope carries the coordinator's
// span tree, rooted at http_query with the query span under it, written
// before the cluster dispatch summary.
func TestClusterQueryReturnsTrace(t *testing.T) {
	rig := startClusterRig(t, workload.Spec{
		DBSources: 2, XMLSources: 2, WebSources: 2, TextSources: 2,
		RecordsPerSource: 5, Seed: 97,
	}, cluster.Options{}, nil)

	raw := getRaw(t, rig.servers["n1"].URL+"/cluster/query?q=SELECT+product&format=json&trace=1")
	var got struct {
		Trace   *obs.Span    `json:"trace"`
		Cluster cluster.Info `json:"cluster"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Trace == nil || got.Trace.Name != "http_query" {
		t.Fatalf("trace = %+v, want a span tree rooted at http_query", got.Trace)
	}
	queries := 0
	for _, c := range got.Trace.Children {
		if c.Name == "query" {
			queries++
		}
	}
	if queries != 1 {
		t.Errorf("http_query root has %d query children, want 1", queries)
	}
	if got.Cluster.Nodes != 3 {
		t.Errorf("cluster summary = %+v, want 3 nodes", got.Cluster)
	}
	if ti, ci := bytes.Index(raw, []byte(`"trace":`)), bytes.Index(raw, []byte(`"cluster":`)); ti > ci {
		t.Errorf("trace at byte %d follows cluster at byte %d; encoding/json writes the embedded envelope's fields first", ti, ci)
	}
}
