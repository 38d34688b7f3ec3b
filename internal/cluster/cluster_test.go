package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasource"
	"repro/internal/extract"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/workload"
)

// fakeClock is a mutex-guarded manual clock for the Options.Now seam.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1700000000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// newTestMiddleware builds a middleware over a small deterministic
// world. With apply the world's sources and mappings are registered;
// without it the middleware starts empty (a joining member) but still
// holds the backends needed to serve any replicated source.
func newTestMiddleware(t *testing.T, world *workload.World, apply bool) *core.Middleware {
	t.Helper()
	mw, err := core.New(core.Config{
		Ontology: world.Ontology,
		Backends: extract.FromCatalog(world.Catalog),
	})
	if err != nil {
		t.Fatal(err)
	}
	if apply {
		if err := world.Apply(mw); err != nil {
			t.Fatal(err)
		}
	}
	return mw
}

// TestRingOwnership checks the consistent-hash ring: deterministic,
// distinct owners per key, and every node owning a fair share.
func TestRingOwnership(t *testing.T) {
	nodes := []string{"n1", "n2", "n3"}
	r1 := buildRing(nodes, 64)
	r2 := buildRing([]string{"n3", "n1", "n2"}, 64)

	primaries := map[string]int{}
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("source-%d", i)
		owners := r1.owners(key, 2)
		if len(owners) != 2 {
			t.Fatalf("owners(%q) = %v, want 2 owners", key, owners)
		}
		if owners[0] == owners[1] {
			t.Fatalf("owners(%q) = %v, replicas must be distinct nodes", key, owners)
		}
		// Node order at build time must not matter.
		if got := r2.owners(key, 2); got[0] != owners[0] || got[1] != owners[1] {
			t.Fatalf("owners(%q) differ across build orders: %v vs %v", key, owners, got)
		}
		primaries[owners[0]]++
	}
	for _, n := range nodes {
		if primaries[n] == 0 {
			t.Errorf("node %s owns no sources (distribution %v)", n, primaries)
		}
	}
	if r1.owners("anything", 5)[0] == "" || len(r1.owners("anything", 5)) != 3 {
		t.Errorf("asking for more replicas than nodes should clamp to the node count")
	}
}

// TestMembershipStatusTransitions drives the failure detector with a
// fake clock: a member is alive right after a heartbeat, suspect once
// SuspectAfter passes in silence, dead after DeadAfter, and alive again
// after its next beat.
func TestMembershipStatusTransitions(t *testing.T) {
	world := workload.MustGenerate(workload.Spec{DBSources: 1, RecordsPerSource: 3, Seed: 31})
	clk := newFakeClock()
	coord, err := NewNode(transport.NewServer(newTestMiddleware(t, world, true)), Options{
		ID: "coord", Addr: "http://coord",
		Now: clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}

	beat := func() {
		t.Helper()
		body, _ := json.Marshal(heartbeatRequest{Node: "m1", Addr: "http://m1", Healthy: true})
		req := httptest.NewRequest(http.MethodPost, "/cluster/heartbeat", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		coord.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("heartbeat status = %d: %s", rec.Code, rec.Body.String())
		}
	}
	statusOf := func(id string) string {
		t.Helper()
		for _, m := range coord.Members() {
			if m.ID == id {
				return m.Status
			}
		}
		t.Fatalf("member %s not in view %+v", id, coord.Members())
		return ""
	}

	beat()
	if got := statusOf("m1"); got != StatusAlive {
		t.Fatalf("fresh member status = %s, want %s", got, StatusAlive)
	}
	clk.Advance(3 * time.Second)
	if got := statusOf("m1"); got != StatusSuspect {
		t.Fatalf("after 3s silence status = %s, want %s", got, StatusSuspect)
	}
	clk.Advance(4 * time.Second)
	if got := statusOf("m1"); got != StatusDead {
		t.Fatalf("after 7s silence status = %s, want %s", got, StatusDead)
	}
	beat()
	if got := statusOf("m1"); got != StatusAlive {
		t.Fatalf("resurrected member status = %s, want %s", got, StatusAlive)
	}
	if got := statusOf("coord"); got != StatusAlive {
		t.Errorf("coordinator status = %s, want always %s", got, StatusAlive)
	}
}

// TestCatalogReplication applies a coordinator's catalog snapshot to an
// empty member middleware: the member ends up with the same sources and
// mappings, a second apply is a no-op, and a conflicting source
// definition is rejected.
func TestCatalogReplication(t *testing.T) {
	world := workload.MustGenerate(workload.Spec{
		DBSources: 1, XMLSources: 1, WebSources: 1, RecordsPerSource: 3, Seed: 32,
	})
	coordMW := newTestMiddleware(t, world, true)
	cat := snapshotCatalog(coordMW)

	memberMW := newTestMiddleware(t, world, false)
	if got := len(memberMW.Sources().All()); got != 0 {
		t.Fatalf("member starts with %d sources, want 0", got)
	}
	cs := cat.snapshot()
	if err := applyCatalog(memberMW, cs); err != nil {
		t.Fatal(err)
	}
	if got, want := len(memberMW.Sources().All()), len(coordMW.Sources().All()); got != want {
		t.Fatalf("member has %d sources after sync, want %d", got, want)
	}
	if got, want := len(memberMW.Mappings().AllEntries()), len(coordMW.Mappings().AllEntries()); got != want {
		t.Fatalf("member has %d mappings after sync, want %d", got, want)
	}

	// Idempotent: a second apply registers nothing new and does not error.
	if err := applyCatalog(memberMW, cs); err != nil {
		t.Fatalf("second apply should be a no-op: %v", err)
	}
	if got, want := len(memberMW.Mappings().AllEntries()), len(coordMW.Mappings().AllEntries()); got != want {
		t.Fatalf("second apply changed mapping count to %d, want %d", got, want)
	}

	// Conflict: the same source ID bound to a different definition.
	conflicted := cs
	conflicted.Sources = append([]transport.WireSource(nil), cs.Sources...)
	conflicted.Sources[0].URL = "http://somewhere.else/entirely"
	conflicted.Sources[0].Path = "/changed"
	conflicted.Sources[0].DSN = "changed"
	if err := applyCatalog(memberMW, conflicted); err == nil || !strings.Contains(err.Error(), "conflict") {
		t.Fatalf("conflicting source definition applied silently (err = %v)", err)
	}
}

// TestCatalogVersionAdvances checks that recording registrations bumps
// the version the heartbeat protocol advertises.
func TestCatalogVersionAdvances(t *testing.T) {
	world := workload.MustGenerate(workload.Spec{DBSources: 1, RecordsPerSource: 3, Seed: 33})
	cat := snapshotCatalog(newTestMiddleware(t, world, true))
	v0 := cat.version()
	cat.recordSource(transport.WireSource{ID: "late-src", Kind: "xml", URL: "http://x"})
	cat.recordMapping(transport.WireMapping{Attribute: "product", Source: "late-src", Code: "//p"})
	if got := cat.version(); got != v0+2 {
		t.Fatalf("version after two registrations = %d, want %d", got, v0+2)
	}
	cs := cat.snapshot()
	if cs.Sources[len(cs.Sources)-1].ID != "late-src" {
		t.Errorf("snapshot missing the recorded source")
	}
}

// TestOrderByLiveness checks dispatch ordering: alive owners first,
// then suspect, then dead, preserving ring order within each class.
func TestOrderByLiveness(t *testing.T) {
	status := map[string]string{"a": StatusDead, "b": StatusAlive, "c": StatusSuspect, "d": StatusAlive}
	got := orderByLiveness([]string{"a", "b", "c", "d"}, status)
	want := []string{"b", "d", "c", "a"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("orderByLiveness = %v, want %v", got, want)
		}
	}
}

// TestWireRoundTrip pushes a result set through toWire/fromWire and
// checks the error envelope strings survive byte-for-byte — the
// property the cluster's byte-identity guarantee rests on.
func TestWireRoundTrip(t *testing.T) {
	rs := &extract.ResultSet{
		Fragments: []extract.Fragment{{
			AttributeID: "product", SourceID: "db-0",
			Values: []string{"Seiko Dive 200"},
		}},
		Errors: []extract.SourceError{{
			SourceID: "web-0", AttributeID: "price",
			Err: extract.Permanent(fmt.Errorf("rule compile failed")),
		}},
	}
	rs.Stats.SourcesContacted = 2
	rs.Stats.ValuesExtracted = 1

	got := fromWire(toWire(rs))
	if len(got.Fragments) != 1 || got.Fragments[0].Values[0] != "Seiko Dive 200" {
		t.Fatalf("fragment did not survive the wire: %+v", got.Fragments)
	}
	if got.Errors[0].Error() != rs.Errors[0].Error() {
		t.Fatalf("error string changed across the wire:\n  pre  %q\n  post %q", rs.Errors[0].Error(), got.Errors[0].Error())
	}
	if !extract.IsPermanent(got.Errors[0].Err) {
		t.Error("permanent marker lost across the wire")
	}
	if got.Stats.SourcesContacted != 2 || got.Stats.ValuesExtracted != 1 {
		t.Errorf("stats did not survive the wire: %+v", got.Stats)
	}
}

// TestOversizedClusterBodiesRefused: the /cluster/* POST routes decode
// through transport.DecodeBody, so a body past transport.MaxRequestBody
// is refused with 413 instead of being read into memory.
func TestOversizedClusterBodiesRefused(t *testing.T) {
	world := workload.MustGenerate(workload.Spec{DBSources: 1, RecordsPerSource: 3, Seed: 33})
	coord, err := NewNode(transport.NewServer(newTestMiddleware(t, world, true)), Options{ID: "n1"})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord)
	defer srv.Close()
	huge := strings.Repeat("x", transport.MaxRequestBody+1)
	for path, body := range map[string]string{
		"/cluster/extract":   `{"query":"` + huge + `"}`,
		"/cluster/heartbeat": `{"node":"` + huge + `"}`,
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

// TestOversizedClusterResponsesRefused points a node at a peer that
// answers with valid JSON longer than maxResponseBody — on the extract
// success path, on its error path, and as a catalog — and checks that
// each read fails instead of decoding the body.
func TestOversizedClusterResponsesRefused(t *testing.T) {
	huge := strings.Repeat("x", maxResponseBody)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch r.URL.Path {
		case "/ok":
			fmt.Fprintf(w, `{"fragments":[{"attributeId":"thing.product.brand","sourceId":"s","values":[%q]}]}`, huge)
		case "/fail":
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprintf(w, `{"error":%q}`, huge)
		case "/cluster/catalog":
			fmt.Fprintf(w, `{"version":2,"padding":%q}`, huge)
		}
	}))
	defer peer.Close()
	world := workload.MustGenerate(workload.Spec{DBSources: 1, RecordsPerSource: 3, Seed: 34})
	member, err := NewNode(transport.NewServer(newTestMiddleware(t, world, false)), Options{ID: "m1", CoordinatorURL: peer.URL})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	var resp extractResponse
	if err := member.postJSON(ctx, peer.URL+"/ok", extractRequest{Query: "SELECT product"}, &resp); err == nil {
		t.Error("an extract response above the bound was decoded")
	}
	err = member.postJSON(ctx, peer.URL+"/fail", extractRequest{Query: "SELECT product"}, &resp)
	if err == nil || len(err.Error()) > 1000 {
		t.Errorf("an error body above the bound was decoded into the error (%d bytes)", len(fmt.Sprint(err)))
	}
	if err := member.syncCatalog(ctx); err == nil {
		t.Error("a catalog above the bound was decoded and applied")
	}
}

// TestClusterQueryShedsAboveConcurrencyCap: /cluster/query runs a whole
// query (a scatter to every owner), so it holds one of the wrapped
// server's concurrent-query slots like /query; with the only slot held
// by a slow /query it is shed with 503 + Retry-After.
func TestClusterQueryShedsAboveConcurrencyCap(t *testing.T) {
	world := workload.MustGenerate(workload.Spec{DBSources: 1, XMLSources: 1, RecordsPerSource: 10, Seed: 38})
	plan := faultinject.Plan{}
	for _, def := range world.Definitions {
		if def.Kind == datasource.KindDatabase {
			plan[faultinject.Key(def)] = faultinject.Fault{AddLatency: 300 * time.Millisecond}
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
	ts := transport.NewServer(mw, transport.WithMaxConcurrentQueries(1))
	node, err := NewNode(ts, Options{ID: "n1"})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(node)
	defer srv.Close()
	node.SetAddr(srv.URL)

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(srv.URL + "/query?q=SELECT+product&format=json")
		if err == nil {
			resp.Body.Close()
		}
	}()
	defer func() { <-done }()
	for polls := 0; ts.Health().ShedInFlight == 0; polls++ {
		if polls == 5000 {
			t.Fatal("the slow /query never took the slot")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Get(srv.URL + "/cluster/query?q=SELECT+product&format=json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (shed)", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
}

// TestClusterQueryWaitsForLosingAttempts: the coordinator's own
// extraction stalls for a second, so every group it is primary for is
// hedged to the member, which wins. The losing in-process attempt winds
// down only after the winner has answered; /cluster/query must still
// return only after it has — every span of the returned trace ended,
// and the loser counted as a canceled sub-query, which it is only if
// it was cancelled rather than waited out.
func TestClusterQueryWaitsForLosingAttempts(t *testing.T) {
	world := workload.MustGenerate(workload.Spec{DBSources: 2, XMLSources: 2, TextSources: 2, RecordsPerSource: 4, Seed: 44})
	stall := faultinject.Plan{}
	for _, def := range world.Definitions {
		stall[faultinject.Key(def)] = faultinject.Fault{AddLatency: time.Second}
	}
	coordMW, err := core.New(core.Config{
		Ontology: world.Ontology,
		Backends: faultinject.New(1, stall).WrapBackends(extract.FromCatalog(world.Catalog)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := world.Apply(coordMW); err != nil {
		t.Fatal(err)
	}
	coord, err := NewNode(transport.NewServer(coordMW), Options{ID: "n1", HedgeDelay: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	coordSrv := httptest.NewServer(coord)
	defer coordSrv.Close()
	coord.SetAddr(coordSrv.URL)
	member, err := NewNode(transport.NewServer(newTestMiddleware(t, world, false)), Options{ID: "n2", CoordinatorURL: coordSrv.URL})
	if err != nil {
		t.Fatal(err)
	}
	memberSrv := httptest.NewServer(member)
	defer memberSrv.Close()
	member.SetAddr(memberSrv.URL)
	if err := member.Join(context.Background()); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(coordSrv.URL + "/cluster/query?q=SELECT+product&format=json&trace=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	canceled := coordMW.Metrics().Counter(obs.MetricClusterSubqueries, obs.Labels{"node": "n1", "outcome": obs.OutcomeCanceled}).Value()

	if cr.Cluster.HedgeWins == 0 || cr.Trace == nil {
		t.Fatalf("fixture: no hedge won or no trace returned: %+v", cr.Cluster)
	}
	if canceled == 0 {
		t.Error("the losing in-process attempt was not counted as a canceled sub-query when the answer arrived")
	}
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		if s.Duration == 0 {
			t.Errorf("span %s had not ended when the answer was encoded", s.Name)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(cr.Trace)
}
