package cluster

// scatter.go is the coordinator's execution engine. A query is planned
// locally, its sources are grouped by owner set on the consistent-hash
// ring, and each group is dispatched to its owners: primary first,
// hedged to the replica after a per-node latency-percentile deadline,
// failed over to the replica immediately on error. The per-group
// result sets merge into one, failovers are re-marked against the full
// schema, and the canonical sort restores the exact single-node order
// — which is what keeps the generated answer byte-identical.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/extract"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/s2sql"
)

// QueryCluster answers one query by scatter-gather across the cluster,
// returning the instance result and the dispatch summary. Only the
// coordinator can serve it.
func (n *Node) QueryCluster(ctx context.Context, query string) (*instance.Result, *Info, error) {
	if !n.coordinator() {
		return nil, nil, fmt.Errorf("cluster: node %s is not the coordinator", n.opts.ID)
	}
	info := &Info{Coordinator: n.opts.ID}
	res, err := n.mw.QueryWithExtractor(ctx, query, func(ctx context.Context, schema *extract.Schema) (*extract.ResultSet, error) {
		return n.scatterExtract(ctx, query, schema, info)
	})
	if err != nil {
		return nil, nil, err
	}
	info.Degraded = len(info.LostSources) > 0
	return res, info, nil
}

// ownerGroup is one dispatch unit: the sources that share an owner
// list.
type ownerGroup struct {
	owners  []string
	sources []string
}

// scatterExtract partitions the sources of the query's unrewritten
// schema by ring ownership and extracts each group on its owning nodes,
// merging the results into one canonical result set.
func (n *Node) scatterExtract(ctx context.Context, query string, schema *extract.Schema, info *Info) (*extract.ResultSet, error) {
	schemaStart := n.opts.Now()
	members := n.Members()
	statusOf := make(map[string]string, len(members))
	addrOf := make(map[string]string, len(members))
	ids := make([]string, 0, len(members))
	for _, m := range members {
		ids = append(ids, m.ID)
		statusOf[m.ID] = m.Status
		addrOf[m.ID] = m.Addr
	}
	info.Nodes = len(members)

	// Ownership hashes over every member regardless of status, so a
	// flapping node does not reshuffle the partitioning; dispatch order
	// (not ownership) is what reacts to liveness.
	ring := buildRing(ids, DefaultVirtualNodes)
	rf := DefaultReplicationFactor
	if rf > len(ids) {
		rf = len(ids)
	}
	groups := map[string]*ownerGroup{}
	var order []string
	for _, p := range schema.Base {
		owners := ring.owners(p.Source.ID, rf)
		key := strings.Join(owners, ",")
		g, ok := groups[key]
		if !ok {
			g = &ownerGroup{owners: owners}
			groups[key] = g
			order = append(order, key)
		}
		g.sources = append(g.sources, p.Source.ID)
	}
	info.Subqueries = len(groups)

	merged := &extract.ResultSet{Missing: schema.Missing}
	merged.Stats.SchemaDuration = n.opts.Now().Sub(schemaStart)
	version := n.cat.version()
	extractStart := n.opts.Now()

	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for _, key := range order {
		g := groups[key]
		wg.Add(1)
		go func(g *ownerGroup) {
			defer wg.Done()
			rs := n.dispatchGroup(ctx, query, version, g, statusOf, addrOf, info, &mu)
			mu.Lock()
			merged.Fragments = append(merged.Fragments, rs.Fragments...)
			merged.Errors = append(merged.Errors, rs.Errors...)
			merged.Stats.SourcesContacted += rs.Stats.SourcesContacted
			merged.Stats.ValuesExtracted += rs.Stats.ValuesExtracted
			merged.Stats.Retries += rs.Stats.Retries
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	merged.Stats.ExtractDuration = n.opts.Now().Sub(extractStart)

	// Failover marking needs the global fragment view, so it runs once
	// over the merged set — against the coordinator's full schema plans,
	// exactly like the single-node pipeline.
	extract.MarkFailovers(merged, schema.Base, n.mw.Metrics())
	merged.SortCanonical()
	return merged, nil
}

// attemptResult is one node's answer to a group dispatch.
type attemptResult struct {
	rs    *extract.ResultSet
	err   error
	node  string
	hedge bool
}

// dispatchGroup extracts one owner group's sources, trying the owners
// in liveness order: the primary first, a hedge to the next owner when
// the latency deadline fires, an immediate failover to the next owner
// when an attempt errors. The first success wins and the losers are
// cancelled. When every owner fails the group degrades to synthetic
// per-source errors instead of failing the query.
func (n *Node) dispatchGroup(ctx context.Context, query string, version uint64, g *ownerGroup, statusOf, addrOf map[string]string, info *Info, infoMu *sync.Mutex) *extract.ResultSet {
	candidates := orderByLiveness(g.owners, statusOf)
	ctx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	results := make(chan attemptResult, len(candidates))
	cancels := make([]context.CancelFunc, len(candidates))
	launch := func(i int, hedge bool) {
		actx, cancel := context.WithCancel(ctx)
		cancels[i] = cancel
		node := candidates[i]
		go func() {
			rs, err := n.extractOn(actx, node, addrOf[node], query, version, g.sources)
			results <- attemptResult{rs: rs, err: err, node: node, hedge: hedge}
		}()
	}

	launch(0, false)
	launched := 1
	var hedgeCh <-chan time.Time
	hedgePending := false
	if !n.opts.DisableHedging && len(candidates) > 1 {
		hedgeCh = n.opts.After(n.hedgeDelayFor(candidates[0]))
		hedgePending = true
	}

	inFlight := 1
	var lastErr error
	for {
		select {
		case res := <-results:
			inFlight--
			if res.err == nil {
				// Winner: cancel the losers and settle the hedge outcome.
				for i := 0; i < launched; i++ {
					if candidates[i] != res.node && cancels[i] != nil {
						cancels[i]()
					}
				}
				infoMu.Lock()
				if res.hedge {
					info.HedgeWins++
					n.mw.Metrics().Counter(obs.MetricClusterHedges, obs.Labels{"outcome": obs.OutcomeHedgeWon}).Inc()
				} else if inFlight > 0 {
					// A hedge (or failover) was still running and lost.
					n.mw.Metrics().Counter(obs.MetricClusterHedges, obs.Labels{"outcome": obs.OutcomeHedgeLost}).Inc()
				}
				if res.node != candidates[0] && !res.hedge {
					info.Failovers++
				}
				infoMu.Unlock()
				return res.rs
			}
			lastErr = res.err
			if ctx.Err() != nil {
				return n.groupLost(g, lastErr, info, infoMu)
			}
			if launched < len(candidates) {
				// Failover: the next owner takes over immediately.
				n.mw.Metrics().Counter(obs.MetricClusterSubqueries,
					obs.Labels{"node": candidates[launched], "outcome": obs.OutcomeFailover}).Inc()
				launch(launched, false)
				launched++
				inFlight++
				hedgePending = false
			} else if inFlight == 0 {
				return n.groupLost(g, lastErr, info, infoMu)
			}
		case <-hedgeCh:
			hedgeCh = nil
			if !hedgePending || launched >= len(candidates) {
				continue
			}
			hedgePending = false
			infoMu.Lock()
			info.Hedged++
			infoMu.Unlock()
			launch(launched, true)
			launched++
			inFlight++
		case <-ctx.Done():
			return n.groupLost(g, ctx.Err(), info, infoMu)
		}
	}
}

// groupLost degrades a group every owner failed: each of its sources
// reports a synthetic whole-source error, and the answer is marked
// degraded for them.
func (n *Node) groupLost(g *ownerGroup, lastErr error, info *Info, infoMu *sync.Mutex) *extract.ResultSet {
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: no owner answered")
	}
	infoMu.Lock()
	info.LostSources = append(info.LostSources, g.sources...)
	infoMu.Unlock()
	rs := &extract.ResultSet{}
	for _, src := range g.sources {
		rs.Errors = append(rs.Errors, extract.SourceError{
			SourceID: src,
			Err:      fmt.Errorf("cluster: owners %s unavailable: %w", strings.Join(g.owners, ","), lastErr),
		})
	}
	return rs
}

// orderByLiveness keeps the owner order (primary first) within each
// liveness class but prefers alive owners over suspect ones and
// suspect over dead — a dead primary's replica answers directly
// instead of waiting out a timeout.
func orderByLiveness(owners []string, statusOf map[string]string) []string {
	rank := func(id string) int {
		switch statusOf[id] {
		case StatusSuspect:
			return 1
		case StatusDead:
			return 2
		default:
			return 0
		}
	}
	out := make([]string, 0, len(owners))
	for _, class := range []int{0, 1, 2} {
		for _, id := range owners {
			if rank(id) == class {
				out = append(out, id)
			}
		}
	}
	return out
}

// hedgeDelayFor is the hedge deadline for a node: the
// DefaultHedgePercentile of its observed sub-request latency once
// DefaultHedgeMinSamples exist, the fixed HedgeDelay until then.
func (n *Node) hedgeDelayFor(node string) time.Duration {
	h := n.mw.Metrics().Histogram(obs.MetricClusterSubqueryDuration, obs.Labels{"node": node})
	if h.Count() >= uint64(DefaultHedgeMinSamples) {
		if q := h.Quantile(DefaultHedgePercentile); q > 0 {
			return time.Duration(q * float64(time.Second))
		}
	}
	return n.opts.HedgeDelay
}

// extractOn runs a restricted extraction on one node: in process when
// the node is this coordinator, over the wire otherwise. Latency and
// outcome are observed per node; the latency histogram drives the
// hedge deadline.
func (n *Node) extractOn(ctx context.Context, node, addr, query string, version uint64, sources []string) (*extract.ResultSet, error) {
	start := n.opts.Now()
	var rs *extract.ResultSet
	var err error
	if node == n.opts.ID {
		var plan *s2sql.Plan
		plan, _, err = n.mw.PlanMergeFree(ctx, query)
		if err == nil {
			rs, err = n.mw.ExtractPlanSources(ctx, plan, sources)
		}
	} else {
		ctx, cancel := context.WithTimeout(ctx, DefaultRequestTimeout)
		defer cancel()
		var resp extractResponse
		err = n.postJSON(ctx, addr+"/cluster/extract", extractRequest{
			Query: query, Sources: sources, CatalogVersion: version,
		}, &resp)
		if err == nil {
			rs = fromWire(resp)
		}
	}
	outcome := obs.OutcomeOK
	switch {
	case err == nil:
		n.mw.Metrics().Histogram(obs.MetricClusterSubqueryDuration, obs.Labels{"node": node}).
			Observe(n.opts.Now().Sub(start).Seconds())
	case ctx.Err() != nil:
		outcome = obs.OutcomeCanceled
	default:
		outcome = obs.OutcomeError
	}
	n.mw.Metrics().Counter(obs.MetricClusterSubqueries, obs.Labels{"node": node, "outcome": outcome}).Inc()
	return rs, err
}
