package integration

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datasource"
	"repro/internal/extract"
	"repro/internal/faultinject"
	"repro/internal/mapping"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/workload"
)

// The cluster chaos suite (run by `make chaos-cluster`, included in
// `make chaos`) stands up a real 3-node in-process cluster — one
// coordinator, two members joined over HTTP — and attacks it: a slow
// node, a node killed cleanly, a node killed mid-request, both owners
// of a partition gone, and catalog registrations racing live queries.
// The invariant under every fault: the answer a client reads from
// /cluster/query is byte-identical to a single node's answer over the
// same world, or explicitly marked degraded when data was truly lost.

// clusterClock is a manual clock for the cluster's Now seam; the
// membership tests advance it instead of sleeping.
type clusterClock struct {
	mu  sync.Mutex
	now time.Time
}

func newClusterClock() *clusterClock {
	return &clusterClock{now: time.Unix(1700000000, 0)}
}

func (c *clusterClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *clusterClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// killSwitch fronts a member node; armed, it hijacks /cluster/extract
// connections and closes them without a response — the node dying
// mid-request, after accepting the sub-query.
type killSwitch struct {
	h     http.Handler
	armed atomic.Bool
}

func (k *killSwitch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if k.armed.Load() && r.URL.Path == "/cluster/extract" {
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
	}
	k.h.ServeHTTP(w, r)
}

// clusterRig is a live 3-node cluster (coordinator n1, members n2 and
// n3) plus an independent single-node baseline over the same world.
type clusterRig struct {
	t       *testing.T
	world   *workload.World
	clk     *clusterClock
	coordMW *core.Middleware
	mws     map[string]*core.Middleware
	nodes   map[string]*cluster.Node
	servers map[string]*httptest.Server
	kills   map[string]*killSwitch

	baselineMW *core.Middleware
	baseline   *transport.Client
}

// startClusterRig builds the cluster. memberPlans optionally wires a
// member's backends through a seeded fault injector.
func startClusterRig(t *testing.T, spec workload.Spec, coordOpts cluster.Options, memberPlans map[string]faultinject.Plan) *clusterRig {
	t.Helper()
	rig := &clusterRig{
		t:       t,
		world:   workload.MustGenerate(spec),
		clk:     newClusterClock(),
		mws:     map[string]*core.Middleware{},
		nodes:   map[string]*cluster.Node{},
		servers: map[string]*httptest.Server{},
		kills:   map[string]*killSwitch{},
	}

	newMW := func(apply bool, plan faultinject.Plan) *core.Middleware {
		t.Helper()
		backends := extract.FromCatalog(rig.world.Catalog)
		if plan != nil {
			backends = faultinject.New(chaosSeed, plan).WrapBackends(backends)
		}
		mw, err := core.New(core.Config{Ontology: rig.world.Ontology, Backends: backends})
		if err != nil {
			t.Fatal(err)
		}
		if apply {
			if err := rig.world.Apply(mw); err != nil {
				t.Fatal(err)
			}
		}
		return mw
	}

	// Independent single-node baseline: the byte-identity oracle.
	rig.baselineMW = newMW(true, nil)
	baseSrv := httptest.NewServer(transport.NewServer(rig.baselineMW))
	t.Cleanup(baseSrv.Close)
	rig.baseline = transport.NewClient(baseSrv.URL, nil)

	// Coordinator n1.
	rig.coordMW = newMW(true, nil)
	coordOpts.ID = "n1"
	if coordOpts.Now == nil {
		coordOpts.Now = rig.clk.Now
	}
	coord, err := cluster.NewNode(transport.NewServer(rig.coordMW), coordOpts)
	if err != nil {
		t.Fatal(err)
	}
	coordSrv := httptest.NewServer(coord)
	t.Cleanup(coordSrv.Close)
	coord.SetAddr(coordSrv.URL)
	rig.nodes["n1"], rig.servers["n1"], rig.mws["n1"] = coord, coordSrv, rig.coordMW

	// Members n2 and n3: empty catalogs that replicate on join.
	for _, id := range []string{"n2", "n3"} {
		mw := newMW(false, memberPlans[id])
		node, err := cluster.NewNode(transport.NewServer(mw), cluster.Options{
			ID: id, CoordinatorURL: coordSrv.URL, Now: rig.clk.Now,
		})
		if err != nil {
			t.Fatal(err)
		}
		ks := &killSwitch{h: node}
		srv := httptest.NewServer(ks)
		t.Cleanup(srv.Close)
		node.SetAddr(srv.URL)
		if err := node.Join(context.Background()); err != nil {
			t.Fatalf("member %s join: %v", id, err)
		}
		rig.nodes[id], rig.servers[id], rig.mws[id], rig.kills[id] = node, srv, mw, ks
	}
	return rig
}

// queryCluster runs one query through /cluster/query.
func (r *clusterRig) queryCluster(q, format string) (cluster.QueryResponse, error) {
	var out cluster.QueryResponse
	resp, err := http.Get(r.servers["n1"].URL + "/cluster/query?q=" + url.QueryEscape(q) + "&format=" + format)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return out, fmt.Errorf("cluster query status %d: %s", resp.StatusCode, e.Error)
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, err
}

// assertEquivalent asserts the cluster's answer is byte-identical to
// the single-node baseline's and returns it for further assertions.
func (r *clusterRig) assertEquivalent(q, format string) cluster.QueryResponse {
	r.t.Helper()
	cr, err := r.queryCluster(q, format)
	if err != nil {
		r.t.Fatalf("cluster query %q/%s: %v", q, format, err)
	}
	sr, err := r.baseline.Query(context.Background(), q, format)
	if err != nil {
		r.t.Fatalf("baseline query %q/%s: %v", q, format, err)
	}
	if cr.Body != sr.Body {
		r.t.Errorf("cluster body diverges from single-node for %q/%s:\n--- cluster ---\n%s\n--- single ---\n%s", q, format, cr.Body, sr.Body)
	}
	if cr.Matched != sr.Matched || cr.Related != sr.Related {
		r.t.Errorf("counts diverge for %q/%s: cluster %d/%d, single %d/%d",
			q, format, cr.Matched, cr.Related, sr.Matched, sr.Related)
	}
	if fmt.Sprint(cr.Missing) != fmt.Sprint(sr.Missing) {
		r.t.Errorf("missing diverges for %q/%s: cluster %v, single %v", q, format, cr.Missing, sr.Missing)
	}
	if fmt.Sprint(cr.Errors) != fmt.Sprint(sr.Errors) {
		r.t.Errorf("errors diverge for %q/%s:\n cluster %v\n single  %v", q, format, cr.Errors, sr.Errors)
	}
	return cr
}

// TestChaosClusterByteIdenticalAnswers runs queries across formats on a
// healthy 3-node cluster: every answer must be byte-identical to a
// single node over the same world, with the work actually partitioned.
func TestChaosClusterByteIdenticalAnswers(t *testing.T) {
	rig := startClusterRig(t, workload.Spec{
		DBSources: 2, XMLSources: 2, WebSources: 2, TextSources: 2,
		RecordsPerSource: 6, Seed: 81,
	}, cluster.Options{}, nil)

	for _, q := range []string{"SELECT product", "SELECT product WHERE brand='Seiko'"} {
		for _, format := range []string{"json", "owl", "turtle"} {
			cr := rig.assertEquivalent(q, format)
			if cr.Cluster.Nodes != 3 {
				t.Errorf("dispatch saw %d nodes, want 3", cr.Cluster.Nodes)
			}
			if cr.Cluster.Subqueries < 2 {
				t.Errorf("extraction split into %d subqueries; the partitioner is not spreading work", cr.Cluster.Subqueries)
			}
			if cr.Cluster.Degraded || len(cr.Cluster.LostSources) > 0 {
				t.Errorf("healthy cluster reported degradation: %+v", cr.Cluster)
			}
		}
	}
}

// TestChaosClusterHedgingCutsTailLatency slows every backend of member
// n2 far past the hedge deadline: the coordinator must re-issue n2's
// sub-queries to the replica owners and answer fast — and still
// byte-identically.
func TestChaosClusterHedgingCutsTailLatency(t *testing.T) {
	spec := workload.Spec{
		DBSources: 2, XMLSources: 2, WebSources: 2, TextSources: 2,
		RecordsPerSource: 6, Seed: 82,
	}
	slowWorld := workload.MustGenerate(spec) // throwaway copy to resolve target keys
	slow := faultinject.Plan{}
	for _, def := range slowWorld.Definitions {
		slow[faultinject.Key(def)] = faultinject.Fault{AddLatency: 600 * time.Millisecond}
	}
	rig := startClusterRig(t, spec,
		cluster.Options{HedgeDelay: 40 * time.Millisecond},
		map[string]faultinject.Plan{"n2": slow})

	elapsed := stopwatch()
	cr := rig.assertEquivalent("SELECT product", "json")
	if d := elapsed(); d >= 450*time.Millisecond {
		t.Errorf("hedged query took %v; hedging should beat the 600ms slow node", d)
	}
	if cr.Cluster.Hedged == 0 || cr.Cluster.HedgeWins == 0 {
		t.Errorf("no hedge fired/won against a slow node: %+v", cr.Cluster)
	}
	won := rig.coordMW.Metrics().Counter(obs.MetricClusterHedges, obs.Labels{"outcome": obs.OutcomeHedgeWon}).Value()
	if won == 0 {
		t.Error("hedge-won counter is zero")
	}
}

// TestChaosClusterNodeDeathFailsOver kills member n2 outright. Before
// the failure detector notices, dispatch must fail over from the dead
// primary to the replica; after the detector marks it dead, dispatch
// must route around it — byte-identically both times.
func TestChaosClusterNodeDeathFailsOver(t *testing.T) {
	rig := startClusterRig(t, workload.Spec{
		DBSources: 2, XMLSources: 2, WebSources: 2, TextSources: 2,
		RecordsPerSource: 6, Seed: 83,
	}, cluster.Options{}, nil)

	rig.servers["n2"].Close()

	// Phase 1: n2 still looks alive, so its sub-queries go out, fail at
	// the socket, and fail over to the replica owner.
	cr := rig.assertEquivalent("SELECT product", "json")
	if cr.Cluster.Failovers == 0 {
		t.Errorf("killed primary produced no failovers: %+v", cr.Cluster)
	}
	if cr.Cluster.Degraded || len(cr.Cluster.LostSources) > 0 {
		t.Errorf("replica held the data; nothing should be lost: %+v", cr.Cluster)
	}

	// Phase 2: silence passes DeadAfter; n3 keeps beating. The detector
	// must mark n2 dead and dispatch must prefer live owners.
	rig.clk.Advance(7 * time.Second)
	if err := rig.nodes["n3"].HeartbeatOnce(context.Background()); err != nil {
		t.Fatalf("n3 heartbeat: %v", err)
	}
	status := map[string]string{}
	for _, m := range rig.nodes["n1"].Members() {
		status[m.ID] = m.Status
	}
	if status["n2"] != cluster.StatusDead || status["n3"] != cluster.StatusAlive {
		t.Fatalf("member statuses = %v, want n2 dead and n3 alive", status)
	}
	cr = rig.assertEquivalent("SELECT product", "json")
	if cr.Cluster.Degraded {
		t.Errorf("routing around a dead node must not degrade: %+v", cr.Cluster)
	}
}

// TestChaosClusterNodeKilledMidQuery arms n2's kill switch so it
// accepts each extraction sub-request and then drops the connection
// cold. The coordinator must fail over and answer byte-identically;
// disarmed again (a flapping node), the cluster heals. Hedging is off:
// a hedge to the replica can answer before the dropped connection is
// seen, and then no failover happens to assert (hedging has its own
// test, TestChaosClusterHedgingCutsTailLatency).
func TestChaosClusterNodeKilledMidQuery(t *testing.T) {
	rig := startClusterRig(t, workload.Spec{
		DBSources: 2, XMLSources: 2, WebSources: 2, TextSources: 2,
		RecordsPerSource: 6, Seed: 84,
	}, cluster.Options{DisableHedging: true}, nil)

	for cycle := 0; cycle < 2; cycle++ {
		rig.kills["n2"].armed.Store(true)
		cr := rig.assertEquivalent("SELECT product", "json")
		if cr.Cluster.Failovers == 0 {
			t.Errorf("cycle %d: mid-query death produced no failovers: %+v", cycle, cr.Cluster)
		}
		if cr.Cluster.Degraded {
			t.Errorf("cycle %d: replica held the data; answer must not degrade: %+v", cycle, cr.Cluster)
		}
		rig.kills["n2"].armed.Store(false)
		if cr := rig.assertEquivalent("SELECT product", "json"); cr.Cluster.Degraded {
			t.Errorf("cycle %d: healed cluster still degraded: %+v", cycle, cr.Cluster)
		}
	}
}

// TestChaosClusterLostPartitionDegradesExplicitly kills both members,
// leaving only the coordinator. Sources whose owner pair was {n2, n3}
// have no surviving owner: the query must still answer with everything
// the coordinator owns, and the lost sources must be reported
// explicitly — never silently dropped.
func TestChaosClusterLostPartitionDegradesExplicitly(t *testing.T) {
	rig := startClusterRig(t, workload.Spec{
		DBSources: 3, XMLSources: 3, WebSources: 3, TextSources: 3,
		RecordsPerSource: 4, Seed: 85,
	}, cluster.Options{}, nil)

	rig.servers["n2"].Close()
	rig.servers["n3"].Close()

	cr, err := rig.queryCluster("SELECT product", "json")
	if err != nil {
		t.Fatalf("query must answer from the surviving node: %v", err)
	}
	if !cr.Cluster.Degraded || len(cr.Cluster.LostSources) == 0 {
		t.Fatalf("both owners of some partition are dead; answer must be marked degraded with lost sources: %+v", cr.Cluster)
	}
	found := false
	for _, e := range cr.Errors {
		if strings.Contains(e, "unavailable") {
			found = true
		}
	}
	if !found {
		t.Errorf("lost sources surfaced no explicit errors: %v", cr.Errors)
	}
	if cr.Matched == 0 {
		t.Error("coordinator-owned sources should still answer the query")
	}
	sr, err := rig.baseline.Query(context.Background(), "SELECT product", "json")
	if err != nil {
		t.Fatal(err)
	}
	if cr.Matched >= sr.Matched {
		t.Errorf("lost partition should cost matches: cluster %d, single %d", cr.Matched, sr.Matched)
	}
}

// TestChaosClusterCatalogRaceConverges registers a new source and its
// mappings on the coordinator while queries are in flight, then checks
// convergence: members pull the new catalog version before serving
// sub-queries against it, and the post-registration cluster answer is
// byte-identical to a single node that registered the same things.
func TestChaosClusterCatalogRaceConverges(t *testing.T) {
	spec := workload.Spec{DBSources: 2, XMLSources: 2, WebSources: 2, RecordsPerSource: 5, Seed: 86}
	world := workload.MustGenerate(spec)
	// Pre-seed the late source's document in the shared catalog (its
	// backends exist everywhere; only the registration arrives late).
	const lateDoc = `<catalog>
  <watch id="0"><brand>Seiko</brand><model>Dive 555</model><case>titanium</case><price>321.00</price><water>200</water></watch>
  <watch id="1"><brand>Casio</brand><model>Field 7</model><case>resin</case><price>59.99</price><water>50</water></watch>
  <provider><name>LateProvider</name></provider>
</catalog>`
	world.Catalog.XML.MustAdd("late.xml", lateDoc)

	lateDef := datasource.Definition{ID: "xml_late", Kind: datasource.KindXML, Path: "late.xml"}
	lateEntries := []mapping.Entry{
		{AttributeID: "thing.product.brand", SourceID: "xml_late", Rule: mapping.Rule{Language: mapping.LangXPath, Code: "/catalog/watch/brand"}},
		{AttributeID: "thing.product.model", SourceID: "xml_late", Rule: mapping.Rule{Language: mapping.LangXPath, Code: "/catalog/watch/model"}},
		{AttributeID: "thing.product.watch.case", SourceID: "xml_late", Rule: mapping.Rule{Language: mapping.LangXPath, Code: "/catalog/watch/case"}},
		{AttributeID: "thing.product.price", SourceID: "xml_late", Rule: mapping.Rule{Language: mapping.LangXPath, Code: "/catalog/watch/price"}},
		{AttributeID: "thing.product.watch.water_resistance", SourceID: "xml_late", Rule: mapping.Rule{Language: mapping.LangXPath, Code: "/catalog/watch/water"}},
		{AttributeID: "thing.provider.name", SourceID: "xml_late", Rule: mapping.Rule{Language: mapping.LangXPath, Code: "/catalog/provider/name"}, Scenario: mapping.SingleRecord},
	}

	// The rig regenerates the same world from the same spec, but the
	// kill-switch harness shares nothing with this test's pre-seeded
	// document — so build the cluster by hand over this world.
	rig := &clusterRig{
		t: t, world: world, clk: newClusterClock(),
		mws:     map[string]*core.Middleware{},
		nodes:   map[string]*cluster.Node{},
		servers: map[string]*httptest.Server{},
		kills:   map[string]*killSwitch{},
	}
	newMW := func(apply bool) *core.Middleware {
		mw, err := core.New(core.Config{Ontology: world.Ontology, Backends: extract.FromCatalog(world.Catalog)})
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
	rig.baselineMW = newMW(true)
	baseSrv := httptest.NewServer(transport.NewServer(rig.baselineMW))
	t.Cleanup(baseSrv.Close)
	rig.baseline = transport.NewClient(baseSrv.URL, nil)

	rig.coordMW = newMW(true)
	coord, err := cluster.NewNode(transport.NewServer(rig.coordMW), cluster.Options{ID: "n1", Now: rig.clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	coordSrv := httptest.NewServer(coord)
	t.Cleanup(coordSrv.Close)
	coord.SetAddr(coordSrv.URL)
	rig.nodes["n1"], rig.servers["n1"] = coord, coordSrv
	for _, id := range []string{"n2", "n3"} {
		mw := newMW(false)
		node, err := cluster.NewNode(transport.NewServer(mw), cluster.Options{
			ID: id, CoordinatorURL: coordSrv.URL, Now: rig.clk.Now,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(node)
		t.Cleanup(srv.Close)
		node.SetAddr(srv.URL)
		if err := node.Join(context.Background()); err != nil {
			t.Fatal(err)
		}
		rig.nodes[id], rig.servers[id], rig.mws[id] = node, srv, mw
	}

	// Pre-registration equivalence.
	rig.assertEquivalent("SELECT product", "json")

	// Race: queries keep flowing while the registrations land.
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				cr, err := rig.queryCluster("SELECT product", "json")
				if err != nil {
					t.Errorf("query during registration: %v", err)
					return
				}
				if cr.Body == "" {
					t.Error("query during registration returned an empty body")
					return
				}
			}
		}()
	}
	post := func(path string, body any) {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(coordSrv.URL+path, "application/json", strings.NewReader(string(data)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST %s status = %d", path, resp.StatusCode)
		}
	}
	post("/sources", transport.FromDefinition(lateDef))
	for _, e := range lateEntries {
		post("/mappings", transport.FromEntry(e))
	}
	wg.Wait()

	// Post-registration oracle: a single node that registered the same
	// late source directly.
	if err := rig.baselineMW.RegisterSource(lateDef); err != nil {
		t.Fatal(err)
	}
	for _, e := range lateEntries {
		if err := rig.baselineMW.RegisterMapping(e); err != nil {
			t.Fatal(err)
		}
	}
	cr := rig.assertEquivalent("SELECT product", "json")
	if cr.Cluster.Degraded {
		t.Errorf("post-registration answer degraded: %+v", cr.Cluster)
	}
	if !strings.Contains(cr.Body, "Dive 555") {
		t.Error("post-registration answer is missing the late source's records")
	}
	syncs := uint64(0)
	for _, id := range []string{"n2", "n3"} {
		syncs += rig.mws[id].Metrics().Counter(obs.MetricClusterCatalogSyncs, nil).Value()
	}
	if syncs == 0 {
		t.Error("no member pulled the catalog; version-gated sub-queries should force a sync")
	}
}
