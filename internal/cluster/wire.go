package cluster

// wire.go is the intra-cluster protocol: heartbeats (membership +
// catalog version advertisement), restricted extraction sub-requests,
// and the cluster query envelope. Extraction results cross the wire as
// plain data — fragment values, error messages, degradation records —
// and are rebuilt into extract types on the coordinator, preserving the
// message text exactly so merged answers serialize byte-identically to
// single-node ones.

import (
	"errors"

	"repro/internal/extract"
	"repro/internal/mapping"
	"repro/internal/transport"
)

// Member is one node as the coordinator sees it.
type Member struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
	// Status is derived from heartbeat recency at read time: alive,
	// suspect, or dead. The coordinator itself is always alive.
	Status string `json:"status"`
	// Unhealthy carries the member's own health self-report (breakers
	// open, shedding at capacity): the node is up but impaired.
	Unhealthy bool `json:"unhealthy,omitempty"`
	// CatalogVersion is the member's last advertised catalog version.
	CatalogVersion uint64 `json:"catalogVersion"`
}

// heartbeatRequest is the body of POST /cluster/heartbeat and
// /cluster/join.
type heartbeatRequest struct {
	Node           string `json:"node"`
	Addr           string `json:"addr"`
	CatalogVersion uint64 `json:"catalogVersion"`
	Healthy        bool   `json:"healthy"`
}

// heartbeatResponse acknowledges a heartbeat with the coordinator's
// catalog version (so a behind member knows to pull) and the current
// membership view. A join response additionally carries the catalog.
type heartbeatResponse struct {
	CatalogVersion uint64        `json:"catalogVersion"`
	Members        []Member      `json:"members"`
	Catalog        *catalogState `json:"catalog,omitempty"`
}

// extractRequest is the body of POST /cluster/extract: run the query's
// extraction restricted to the listed sources. CatalogVersion is the
// coordinator's version at dispatch time; a member that is behind
// syncs before extracting, which closes the catalog race — a query
// planned against version N never runs against older mappings.
type extractRequest struct {
	Query          string   `json:"query"`
	Sources        []string `json:"sources"`
	CatalogVersion uint64   `json:"catalogVersion"`
}

// wireFragment is extract.Fragment in wire form.
type wireFragment struct {
	Attribute string   `json:"attribute"`
	Source    string   `json:"source"`
	Scenario  int      `json:"scenario"`
	Values    []string `json:"values"`
}

// wireSourceError is extract.SourceError in wire form; the message
// round-trips verbatim so the merged envelope is byte-identical.
type wireSourceError struct {
	Source    string `json:"source"`
	Attribute string `json:"attribute,omitempty"`
	Error     string `json:"error"`
	Permanent bool   `json:"permanent,omitempty"`
}

// extractResponse is one node's answer to a restricted extraction.
type extractResponse struct {
	Fragments []wireFragment    `json:"fragments"`
	Errors    []wireSourceError `json:"errors,omitempty"`
	Stats     extract.Stats     `json:"stats"`
}

// Info annotates a cluster query answer with how the fleet served it.
type Info struct {
	// Coordinator is the answering coordinator's node ID and Nodes the
	// member count at dispatch.
	Coordinator string `json:"coordinator"`
	Nodes       int    `json:"nodes"`
	// Subqueries is how many owner groups extraction was split into.
	Subqueries int `json:"subqueries"`
	// Hedged counts sub-requests whose hedge fired; HedgeWins those the
	// hedge answered first.
	Hedged    int `json:"hedged,omitempty"`
	HedgeWins int `json:"hedgeWins,omitempty"`
	// Failovers counts sub-requests answered by a replica owner after
	// the primary failed.
	Failovers int `json:"failovers,omitempty"`
	// LostSources lists sources every owner failed to serve; when
	// non-empty the answer is Degraded.
	LostSources []string `json:"lostSources,omitempty"`
	Degraded    bool     `json:"degraded,omitempty"`
}

// QueryResponse is the /cluster/query envelope: the standard transport
// envelope plus the cluster dispatch summary.
type QueryResponse struct {
	transport.QueryResponse
	Cluster Info `json:"cluster"`
}

// toWire flattens a restricted result set for the wire.
func toWire(rs *extract.ResultSet) extractResponse {
	out := extractResponse{
		Fragments: make([]wireFragment, 0, len(rs.Fragments)),
		Stats:     rs.Stats,
	}
	for _, f := range rs.Fragments {
		out.Fragments = append(out.Fragments, wireFragment{
			Attribute: f.AttributeID,
			Source:    f.SourceID,
			Scenario:  int(f.Scenario),
			Values:    f.Values,
		})
	}
	for _, e := range rs.Errors {
		out.Errors = append(out.Errors, wireSourceError{
			Source:    e.SourceID,
			Attribute: e.AttributeID,
			Error:     e.Err.Error(),
			Permanent: extract.IsPermanent(e.Err),
		})
	}
	return out
}

// fromWire rebuilds a result set from the wire form. Error messages
// become opaque errors with identical text (the Permanent marker is
// re-applied), so the instance layer's error reporting cannot tell a
// remote fragment set from a local one.
func fromWire(resp extractResponse) *extract.ResultSet {
	rs := &extract.ResultSet{
		Fragments: make([]extract.Fragment, 0, len(resp.Fragments)),
		Stats:     resp.Stats,
	}
	for _, f := range resp.Fragments {
		rs.Fragments = append(rs.Fragments, extract.Fragment{
			AttributeID: f.Attribute,
			SourceID:    f.Source,
			Scenario:    mapping.Scenario(f.Scenario),
			Values:      f.Values,
		})
	}
	for _, e := range resp.Errors {
		err := errors.New(e.Error)
		if e.Permanent {
			err = extract.Permanent(err)
		}
		rs.Errors = append(rs.Errors, extract.SourceError{
			SourceID:    e.Source,
			AttributeID: e.Attribute,
			Err:         err,
		})
	}
	return rs
}
