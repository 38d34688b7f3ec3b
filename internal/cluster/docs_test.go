package cluster

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

const docPath = "../../docs/CLUSTER.md"

// TestDocCoversClusterSurface keeps docs/CLUSTER.md in lockstep with
// the code (mirroring internal/obs/docs_test.go): every /cluster route
// the node registers, every member status, the cluster metric families,
// and the tunable defaults the doc quotes must all match what the
// package actually exposes.
func TestDocCoversClusterSurface(t *testing.T) {
	raw, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatalf("read %s: %v", docPath, err)
	}
	// Collapse the doc's hard line wraps so quoted phrases match
	// regardless of where the prose breaks.
	doc := strings.Join(strings.Fields(string(raw)), " ")

	for _, route := range []string{
		"/cluster/join",
		"/cluster/heartbeat",
		"/cluster/catalog",
		"/cluster/members",
		"/cluster/extract",
		"/cluster/query",
	} {
		if !strings.Contains(doc, "`"+route) && !strings.Contains(doc, route+"`") {
			t.Errorf("route %s is served but not documented in %s", route, docPath)
		}
	}

	for _, status := range []string{StatusAlive, StatusSuspect, StatusDead} {
		if !strings.Contains(doc, "`"+status+"`") {
			t.Errorf("member status %q is not documented in %s", status, docPath)
		}
	}

	for _, metric := range []string{obs.MetricClusterHedges, obs.MetricClusterCatalogSyncs} {
		if !strings.Contains(doc, metric) {
			t.Errorf("metric %s is cited by the design but missing from %s", metric, docPath)
		}
	}

	// The defaults the prose quotes must track the code's constants.
	for _, want := range []string{
		fmt.Sprintf("`HeartbeatInterval`, default %dms", DefaultHeartbeatInterval/time.Millisecond),
		fmt.Sprintf("`SuspectAfter` (%ds)", DefaultSuspectAfter/time.Second),
		fmt.Sprintf("`DeadAfter` (%ds)", DefaultDeadAfter/time.Second),
		fmt.Sprintf("`VirtualNodes` (%d)", DefaultVirtualNodes),
		fmt.Sprintf("`ReplicationFactor` (%d)", DefaultReplicationFactor),
		fmt.Sprintf("`HedgeMinSamples` (%d)", DefaultHedgeMinSamples),
		fmt.Sprintf("`HedgeDelay` (%dms)", DefaultHedgeDelay/time.Millisecond),
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("doc does not quote the code's default: %s missing from %s", want, docPath)
		}
	}

	for _, anchor := range []string{"byte-identical", "make chaos-cluster", "make bench-compare FAMILY=E19", "BenchmarkE19HedgedDispatch/hedged", "BENCH_baseline.json"} {
		if !strings.Contains(doc, anchor) {
			t.Errorf("doc is missing its %q anchor", anchor)
		}
	}
}
