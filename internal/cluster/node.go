package cluster

// node.go is the cluster node: an http.Handler that fronts a
// transport.Server with the /cluster/* routes layered on top. A
// coordinator node tracks membership and owns the catalog; a member
// node joins a coordinator, heartbeats it, and serves restricted
// extraction sub-requests. Registrations POSTed to a coordinator's
// /sources and /mappings are intercepted so the catalog records them
// and the version counter advances.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/obs"
	"repro/internal/transport"
)

// Node is one cluster participant wrapping a transport server.
type Node struct {
	opts Options
	srv  *transport.Server
	mw   *core.Middleware
	mux  *http.ServeMux
	// http carries every intra-cluster call.
	http *http.Client

	// cat is the replicated catalog. The coordinator's copy is
	// authoritative; members track the version they last applied.
	cat *catalog

	mu sync.Mutex
	// members is the coordinator's membership table (coordinator only),
	// keyed by node ID. The coordinator lists itself.
	members map[string]*memberState
	// addr is the advertised address (mutable via SetAddr for harnesses
	// that learn their listener address late).
	addr string
	// appliedVersion is the catalog version a member has applied.
	appliedVersion uint64

	stopOnce sync.Once
	stopCh   chan struct{}
	doneCh   chan struct{}
}

// memberState is one member's liveness record on the coordinator.
type memberState struct {
	addr           string
	lastBeat       time.Time
	healthy        bool
	catalogVersion uint64
	self           bool
}

// NewNode wraps a transport server as a cluster node. With
// Options.CoordinatorURL empty the node is the coordinator and seeds
// the replicated catalog from its middleware's registrations;
// otherwise it is a member that must Join (or Start) against the
// coordinator.
func NewNode(srv *transport.Server, opts Options) (*Node, error) {
	if opts.ID == "" {
		return nil, fmt.Errorf("cluster: Options.ID is required")
	}
	opts = opts.withDefaults()
	n := &Node{
		opts:   opts,
		srv:    srv,
		mw:     srv.Middleware(),
		mux:    http.NewServeMux(),
		http:   &http.Client{Timeout: DefaultRequestTimeout},
		addr:   opts.Addr,
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
	if n.coordinator() {
		n.cat = snapshotCatalog(n.mw)
		n.members = map[string]*memberState{
			opts.ID: {addr: opts.Addr, healthy: true, catalogVersion: n.cat.version(), self: true},
		}
		n.appliedVersion = n.cat.version()
		n.mux.HandleFunc("/cluster/query", n.handleClusterQuery)
		n.mux.HandleFunc("/cluster/heartbeat", n.handleHeartbeat)
		n.mux.HandleFunc("/cluster/join", n.handleHeartbeat)
		n.mux.HandleFunc("/cluster/catalog", n.handleCatalog)
	}
	n.mux.HandleFunc("/cluster/extract", n.handleClusterExtract)
	n.mux.HandleFunc("/cluster/members", n.handleMembers)
	return n, nil
}

// coordinator reports whether this node coordinates the cluster.
func (n *Node) coordinator() bool { return n.opts.CoordinatorURL == "" }

// SetAddr updates the advertised address (httptest harnesses bind
// before they know their URL).
func (n *Node) SetAddr(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.addr = addr
	if n.coordinator() {
		n.members[n.opts.ID].addr = addr
	}
}

// Addr returns the advertised address.
func (n *Node) Addr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.addr
}

// ServeHTTP routes /cluster/* to the cluster layer, intercepts catalog
// mutations on the coordinator, and delegates everything else to the
// wrapped transport server.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/cluster/") {
		n.mux.ServeHTTP(w, r)
		return
	}
	if n.coordinator() && r.Method == http.MethodPost {
		switch r.URL.Path {
		case "/sources":
			n.handleRegisterSource(w, r)
			return
		case "/mappings":
			n.handleRegisterMapping(w, r)
			return
		}
	}
	n.srv.ServeHTTP(w, r)
}

// handleRegisterSource registers a source on the coordinator and
// records it in the replicated catalog, bumping the version so members
// pull it on their next heartbeat.
func (n *Node) handleRegisterSource(w http.ResponseWriter, r *http.Request) {
	var ws transport.WireSource
	if !transport.DecodeBody(w, r, &ws) {
		return
	}
	def, err := ws.ToDefinition()
	if err != nil {
		transport.Error(w, http.StatusBadRequest, err)
		return
	}
	if err := n.mw.RegisterSource(def); err != nil {
		transport.Error(w, http.StatusConflict, err)
		return
	}
	n.cat.recordSource(ws)
	w.WriteHeader(http.StatusCreated)
}

// handleRegisterMapping is handleRegisterSource for mapping entries.
func (n *Node) handleRegisterMapping(w http.ResponseWriter, r *http.Request) {
	var wm transport.WireMapping
	if !transport.DecodeBody(w, r, &wm) {
		return
	}
	entry, err := wm.ToEntry()
	if err != nil {
		transport.Error(w, http.StatusBadRequest, err)
		return
	}
	if err := n.mw.RegisterMapping(entry); err != nil {
		transport.Error(w, http.StatusConflict, err)
		return
	}
	n.cat.recordMapping(wm)
	w.WriteHeader(http.StatusCreated)
}

// handleHeartbeat serves POST /cluster/heartbeat and /cluster/join on
// the coordinator: record the member's beat, health, and catalog
// version, and answer with the membership view. A join additionally
// returns the full catalog so the joiner syncs in one round trip.
func (n *Node) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		transport.Error(w, http.StatusMethodNotAllowed, fmt.Errorf("cluster: %s not allowed", r.Method))
		return
	}
	var req heartbeatRequest
	if !transport.DecodeBody(w, r, &req) {
		return
	}
	if req.Node == "" {
		transport.Error(w, http.StatusBadRequest, fmt.Errorf("cluster: heartbeat without node id"))
		return
	}
	n.mw.Metrics().Counter(obs.MetricClusterHeartbeats, obs.Labels{"node": req.Node}).Inc()
	n.mu.Lock()
	st, ok := n.members[req.Node]
	if !ok {
		st = &memberState{}
		n.members[req.Node] = st
	}
	st.addr = req.Addr
	st.lastBeat = n.opts.Now()
	st.healthy = req.Healthy
	st.catalogVersion = req.CatalogVersion
	n.mu.Unlock()

	resp := heartbeatResponse{CatalogVersion: n.cat.version(), Members: n.Members()}
	if strings.HasSuffix(r.URL.Path, "/join") {
		cs := n.cat.snapshot()
		resp.Catalog = &cs
	}
	w.Header().Set("Content-Type", "application/json")
	transport.WriteJSON(w, resp)
}

// handleCatalog serves GET /cluster/catalog on the coordinator.
func (n *Node) handleCatalog(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		transport.Error(w, http.StatusMethodNotAllowed, fmt.Errorf("cluster: %s not allowed", r.Method))
		return
	}
	cs := n.cat.snapshot()
	w.Header().Set("Content-Type", "application/json")
	transport.WriteJSON(w, cs)
}

// handleMembers serves GET /cluster/members: the coordinator's live
// view, or (on a member) the member's own identity row.
func (n *Node) handleMembers(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		transport.Error(w, http.StatusMethodNotAllowed, fmt.Errorf("cluster: %s not allowed", r.Method))
		return
	}
	var members []Member
	if n.coordinator() {
		members = n.Members()
	} else {
		members = []Member{{ID: n.opts.ID, Addr: n.Addr(), Status: StatusAlive, CatalogVersion: n.appliedCatalogVersion()}}
	}
	w.Header().Set("Content-Type", "application/json")
	transport.WriteJSON(w, members)
}

// Members snapshots the coordinator's membership view, sorted by node
// ID, with each member's status derived from heartbeat recency: alive
// within SuspectAfter, suspect within DeadAfter, dead past it. The
// coordinator itself is always alive.
func (n *Node) Members() []Member {
	now := n.opts.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Member, 0, len(n.members))
	for id, st := range n.members {
		m := Member{ID: id, Addr: st.addr, Status: StatusAlive, Unhealthy: !st.healthy, CatalogVersion: st.catalogVersion}
		if st.self {
			m.Unhealthy = n.srv.Health().Status != "ok"
			m.CatalogVersion = n.cat.version()
		} else {
			switch silence := now.Sub(st.lastBeat); {
			case silence > DefaultDeadAfter:
				m.Status = StatusDead
			case silence > DefaultSuspectAfter:
				m.Status = StatusSuspect
			}
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// appliedCatalogVersion is the catalog version this node has applied.
func (n *Node) appliedCatalogVersion() uint64 {
	if n.coordinator() {
		return n.cat.version()
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.appliedVersion
}

// setAppliedVersion records a successfully applied catalog version.
func (n *Node) setAppliedVersion(v uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if v > n.appliedVersion {
		n.appliedVersion = v
	}
}

// maxResponseBody bounds every JSON reply a node reads from a peer
// (through transport.ReadJSON): a member's extract response or error, a
// heartbeat or join reply, the coordinator's catalog. The largest
// replies the cluster tests and the E19 benchmark produce are a 5.8 KB
// extract response and an 8.6 KB catalog; 8 MiB is over 1,000 times
// either, and still refuses a runaway or hostile peer before it fills
// memory.
const maxResponseBody = 8 << 20

// postJSON POSTs body and decodes the JSON response into out. The
// caller's trace identity rides along in the request headers, so a
// member serving the sub-request joins the coordinator's trace instead
// of starting its own.
func (n *Node) postJSON(ctx context.Context, url string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("cluster: encoding request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("cluster: building request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if span := obs.SpanFromContext(ctx); span != nil {
		req.Header.Set(transport.TraceIDHeader, span.TraceID)
		req.Header.Set(transport.SpanIDHeader, span.ID)
	}
	resp, err := n.http.Do(req)
	if err != nil {
		return fmt.Errorf("cluster: calling %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if jerr := transport.ReadJSON(resp.Body, maxResponseBody, &e); jerr == nil && e.Error != "" {
			return fmt.Errorf("cluster: %s: %s (status %d)", url, e.Error, resp.StatusCode)
		}
		return fmt.Errorf("cluster: %s: status %s", url, resp.Status)
	}
	if out != nil {
		if err := transport.ReadJSON(resp.Body, maxResponseBody, out); err != nil {
			return fmt.Errorf("cluster: decoding response: %w", err)
		}
	}
	return nil
}

// heartbeat beats the coordinator once. join asks for the catalog
// inline; otherwise the catalog is pulled only when the advertised
// version is ahead of what this node applied.
func (n *Node) heartbeat(ctx context.Context, join bool) error {
	path := "/cluster/heartbeat"
	if join {
		path = "/cluster/join"
	}
	req := heartbeatRequest{
		Node:           n.opts.ID,
		Addr:           n.Addr(),
		CatalogVersion: n.appliedCatalogVersion(),
		Healthy:        n.srv.Health().Status == "ok",
	}
	var resp heartbeatResponse
	if err := n.postJSON(ctx, n.opts.CoordinatorURL+path, req, &resp); err != nil {
		return err
	}
	if resp.Catalog != nil {
		if err := applyCatalog(n.mw, *resp.Catalog); err != nil {
			return err
		}
		n.setAppliedVersion(resp.Catalog.Version)
		return nil
	}
	if resp.CatalogVersion > n.appliedCatalogVersion() {
		return n.syncCatalog(ctx)
	}
	return nil
}

// Join announces this member to the coordinator and applies the
// coordinator's catalog.
func (n *Node) Join(ctx context.Context) error {
	if n.coordinator() {
		return fmt.Errorf("cluster: the coordinator does not join")
	}
	return n.heartbeat(ctx, true)
}

// HeartbeatOnce beats the coordinator synchronously (tests drive the
// heartbeat loop deterministically with it).
func (n *Node) HeartbeatOnce(ctx context.Context) error {
	if n.coordinator() {
		return nil
	}
	return n.heartbeat(ctx, false)
}

// syncCatalog pulls the coordinator's catalog and applies it.
func (n *Node) syncCatalog(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.opts.CoordinatorURL+"/cluster/catalog", nil)
	if err != nil {
		return fmt.Errorf("cluster: building request: %w", err)
	}
	resp, err := n.http.Do(req)
	if err != nil {
		return fmt.Errorf("cluster: pulling catalog: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: pulling catalog: status %s", resp.Status)
	}
	var cs catalogState
	if err := transport.ReadJSON(resp.Body, maxResponseBody, &cs); err != nil {
		return fmt.Errorf("cluster: decoding catalog: %w", err)
	}
	if err := applyCatalog(n.mw, cs); err != nil {
		return err
	}
	n.setAppliedVersion(cs.Version)
	n.mw.Metrics().Counter(obs.MetricClusterCatalogSyncs, nil).Inc()
	return nil
}

// Start joins the coordinator and runs the heartbeat loop until Stop.
// The coordinator needs no loop; Start is a no-op there.
func (n *Node) Start(ctx context.Context) error {
	if n.coordinator() {
		close(n.doneCh)
		return nil
	}
	if err := n.Join(ctx); err != nil {
		return err
	}
	go func() {
		defer close(n.doneCh)
		for {
			select {
			case <-n.stopCh:
				return
			case <-n.opts.After(DefaultHeartbeatInterval):
				hctx, cancel := context.WithTimeout(context.Background(), DefaultRequestTimeout)
				//lint:ignore errcheck a missed beat is the failure detector's business; the suspicion state is the error channel
				_ = n.HeartbeatOnce(hctx)
				cancel()
			}
		}
	}()
	return nil
}

// Stop ends the heartbeat loop.
func (n *Node) Stop() {
	n.stopOnce.Do(func() { close(n.stopCh) })
	<-n.doneCh
}

// ensureCatalog brings a member at least up to the given catalog
// version before it serves a sub-request planned against it — the
// deterministic answer to the coordinator catalog race.
func (n *Node) ensureCatalog(ctx context.Context, version uint64) error {
	if n.coordinator() || version == 0 || n.appliedCatalogVersion() >= version {
		return nil
	}
	if err := n.syncCatalog(ctx); err != nil {
		return err
	}
	if have := n.appliedCatalogVersion(); have < version {
		return fmt.Errorf("cluster: catalog behind after sync: have %d, need %d", have, version)
	}
	return nil
}

// handleClusterExtract serves POST /cluster/extract: restricted
// extraction for the sources this node owns in some coordinator's
// partitioning.
func (n *Node) handleClusterExtract(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		transport.Error(w, http.StatusMethodNotAllowed, fmt.Errorf("cluster: %s not allowed", r.Method))
		return
	}
	var req extractRequest
	if !transport.DecodeBody(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.Query) == "" || len(req.Sources) == 0 {
		transport.Error(w, http.StatusBadRequest, fmt.Errorf("cluster: extract request needs a query and sources"))
		return
	}
	// Join the coordinator's trace when the sub-request carries one, so a
	// scatter-gather query reads as one federated tree: the member's
	// cluster_extract root (and the per-source spans under it) share the
	// coordinator's trace ID.
	ctx, root := transport.BeginRequest(n.mw, w, r, "cluster_extract")
	if err := n.ensureCatalog(ctx, req.CatalogVersion); err != nil {
		transport.EndRequest(root, err)
		transport.Error(w, http.StatusServiceUnavailable, err)
		return
	}
	plan, _, err := n.mw.PlanMergeFree(ctx, req.Query)
	if err != nil {
		transport.EndRequest(root, err)
		transport.Error(w, http.StatusBadRequest, err)
		return
	}
	rs, err := n.mw.ExtractPlanSources(ctx, plan, req.Sources)
	transport.EndRequest(root, err)
	if err != nil {
		transport.Error(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	transport.WriteJSON(w, toWire(rs))
}

// handleClusterQuery serves /cluster/query on the coordinator: the
// regular query surface (GET ?q=&format=&trace= or a POSTed
// QueryRequest), answered through the single-node pipeline with the
// scatter-gather across the owning nodes as its extraction stage, and
// the dispatch summary attached after the span tree. It holds one of
// the wrapped server's concurrent-query slots, as /query does.
func (n *Node) handleClusterQuery(w http.ResponseWriter, r *http.Request) {
	if !n.srv.AcquireQuerySlot(w) {
		return
	}
	defer n.srv.ReleaseQuerySlot()
	req, format, ok := transport.DecodeQueryRequest(w, r)
	if !ok {
		return
	}
	ctx, root := transport.BeginRequest(n.mw, w, r, "http_query")
	info := &Info{Coordinator: n.opts.ID}
	transport.AnswerQuery(ctx, w, root, n.mw, core.Request{
		Query:  req.Query,
		Format: format,
		Extract: func(ctx context.Context, schema *extract.Schema) (*extract.ResultSet, error) {
			return n.scatterExtract(ctx, req.Query, schema, info)
		},
	}, req.Trace, transport.Field{Name: "cluster", Value: info})
}
