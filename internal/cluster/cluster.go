// Package cluster turns a set of S2S middleware servers into one
// fault-tolerant fleet. One node acts as the coordinator: it tracks
// member liveness via heartbeats (alive → suspect → dead as deadlines
// pass), replicates the source/mapping catalog to every member behind
// a version counter, and answers queries on /cluster/query by
// partitioning the plan's sources across the members with a consistent
// hash ring and scattering restricted extraction to the owning nodes.
//
// Each source has a primary owner and (replication factor permitting)
// replica owners. Dispatch is hedged: after a per-node latency
// percentile deadline the same sub-request is re-issued to the replica
// and the first success wins, cutting tail latency when a node is slow;
// on failure the replica is tried immediately, and only when every
// owner fails is the answer marked degraded for those sources. The
// merged fragments run through the exact single-node pipeline (plan,
// generate, serialize), so a healthy cluster's answers are
// byte-identical to a single node's. See docs/CLUSTER.md.
package cluster

import "time"

// The cluster's fixed tunings. Only HedgeDelay can be overridden, by
// Options.HedgeDelay.
const (
	// DefaultReplicationFactor is how many member nodes own each source
	// (one primary plus one replica).
	DefaultReplicationFactor = 2
	// DefaultVirtualNodes is the number of ring points per member; more
	// points spread sources more evenly at the cost of ring size.
	DefaultVirtualNodes = 64
	// DefaultHeartbeatInterval is how often a member beats the
	// coordinator.
	DefaultHeartbeatInterval = 500 * time.Millisecond
	// DefaultSuspectAfter is the silence after which a member is
	// suspect: still an owner, but dispatch prefers alive replicas.
	DefaultSuspectAfter = 2 * time.Second
	// DefaultDeadAfter is the silence after which a member is dead.
	DefaultDeadAfter = 6 * time.Second
	// DefaultHedgeDelay is the hedge deadline used until a node has
	// enough latency samples for a percentile estimate.
	DefaultHedgeDelay = 25 * time.Millisecond
	// DefaultHedgePercentile is the per-node latency quantile the hedge
	// deadline tracks once samples exist.
	DefaultHedgePercentile = 0.9
	// DefaultHedgeMinSamples is how many latency samples a node needs
	// before its percentile replaces DefaultHedgeDelay.
	DefaultHedgeMinSamples = 8
	// DefaultRequestTimeout bounds one sub-request to one node.
	DefaultRequestTimeout = 10 * time.Second
)

// Member statuses, derived from heartbeat recency at read time.
const (
	StatusAlive   = "alive"
	StatusSuspect = "suspect"
	StatusDead    = "dead"
)

// Options configure a cluster node.
type Options struct {
	// ID names this node within the cluster. Required.
	ID string
	// Addr is the node's advertised base URL (e.g. "http://host:port").
	// Test harnesses that learn their address late can use SetAddr.
	Addr string
	// CoordinatorURL, when set, makes this node a member that joins and
	// heartbeats the coordinator at that base URL; when empty the node
	// is the coordinator.
	CoordinatorURL string
	// HedgeDelay is the fixed hedge deadline used until
	// DefaultHedgeMinSamples latency observations exist for the target
	// node, after which the DefaultHedgePercentile of its observed
	// sub-request latency is used. 0 means DefaultHedgeDelay.
	HedgeDelay time.Duration
	// DisableHedging turns tail-latency hedging off; failover on error
	// still happens.
	DisableHedging bool
	// Now and After are the clock seams (failure detection, latency
	// measurement, hedge timers); nil uses the real clock. Tests inject
	// fakes, and the determinism analyzer enforces that no raw clock
	// call bypasses them.
	Now   func() time.Time
	After func(d time.Duration) <-chan time.Time
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.HedgeDelay <= 0 {
		o.HedgeDelay = DefaultHedgeDelay
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.After == nil {
		o.After = time.After
	}
	return o
}
