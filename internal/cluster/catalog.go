package cluster

// catalog.go replicates the coordinator's source/mapping catalog to
// every member. The coordinator holds the authoritative copy behind a
// version counter: each registration bumps the version, heartbeats
// advertise it, and a member that is behind pulls the full catalog and
// applies it idempotently. Because members apply registrations through
// the middleware facade, every sync also flushes the member's plan
// cache — the propagation path for cache coherence across the fleet.

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/transport"
)

// catalogState is the replicated catalog: the wire forms of every
// source, mapping, and class key, behind a version counter.
type catalogState struct {
	Version   uint64                  `json:"version"`
	Sources   []transport.WireSource  `json:"sources"`
	Mappings  []transport.WireMapping `json:"mappings"`
	ClassKeys map[string]string       `json:"classKeys,omitempty"`
}

// catalog is the coordinator's authoritative, mutex-guarded copy.
type catalog struct {
	mu    sync.Mutex
	state catalogState
}

// snapshotCatalog seeds a catalog from a middleware's current
// registrations at version 1.
func snapshotCatalog(mw *core.Middleware) *catalog {
	c := &catalog{}
	c.state.Version = 1
	for _, def := range mw.Sources().All() {
		c.state.Sources = append(c.state.Sources, transport.FromDefinition(def))
	}
	for _, e := range mw.Mappings().AllEntries() {
		c.state.Mappings = append(c.state.Mappings, transport.FromEntry(e))
	}
	c.state.ClassKeys = mw.Mappings().ClassKeys()
	return c
}

// snapshot copies the current state.
func (c *catalog) snapshot() catalogState {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.state
	s.Sources = append([]transport.WireSource(nil), c.state.Sources...)
	s.Mappings = append([]transport.WireMapping(nil), c.state.Mappings...)
	s.ClassKeys = make(map[string]string, len(c.state.ClassKeys))
	for k, v := range c.state.ClassKeys {
		s.ClassKeys[k] = v
	}
	return s
}

// version returns the current catalog version.
func (c *catalog) version() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state.Version
}

// recordSource appends a registered source and bumps the version.
func (c *catalog) recordSource(ws transport.WireSource) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.state.Sources = append(c.state.Sources, ws)
	c.state.Version++
	return c.state.Version
}

// recordMapping appends a registered mapping and bumps the version.
func (c *catalog) recordMapping(wm transport.WireMapping) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.state.Mappings = append(c.state.Mappings, wm)
	c.state.Version++
	return c.state.Version
}

// applyCatalog brings a member middleware up to the given catalog
// state, idempotently: sources and mappings the middleware already
// holds are skipped, new ones are registered through the facade (which
// invalidates the member's caches), and a source registered under the
// same ID with a different definition is a conflict — replicas must
// agree on what a source is.
func applyCatalog(mw *core.Middleware, cs catalogState) error {
	haveSources := make(map[string]transport.WireSource)
	for _, def := range mw.Sources().All() {
		haveSources[def.ID] = transport.FromDefinition(def)
	}
	for _, ws := range cs.Sources {
		if have, ok := haveSources[ws.ID]; ok {
			if !wireSourceEqual(have, ws) {
				return fmt.Errorf("cluster: catalog conflict: source %q differs from the replicated definition", ws.ID)
			}
			continue
		}
		def, err := ws.ToDefinition()
		if err != nil {
			return fmt.Errorf("cluster: applying catalog: %w", err)
		}
		if err := mw.RegisterSource(def); err != nil {
			return fmt.Errorf("cluster: applying catalog: %w", err)
		}
	}
	// Mappings are keyed by their identity fields only: the repository
	// defaults language and scenario at registration, so the registered
	// entry's wire form can differ from the form that was POSTed even
	// though both describe the same rule.
	haveMappings := make(map[string]bool)
	for _, e := range mw.Mappings().AllEntries() {
		haveMappings[mappingKey(transport.FromEntry(e))] = true
	}
	for _, wm := range cs.Mappings {
		if haveMappings[mappingKey(wm)] {
			continue
		}
		entry, err := wm.ToEntry()
		if err != nil {
			return fmt.Errorf("cluster: applying catalog: %w", err)
		}
		if err := mw.RegisterMapping(entry); err != nil {
			return fmt.Errorf("cluster: applying catalog: %w", err)
		}
	}
	for class, attr := range cs.ClassKeys {
		if mw.Mappings().ClassKey(class) == attr {
			continue
		}
		if err := mw.SetClassKey(class, attr); err != nil {
			return fmt.Errorf("cluster: applying catalog: %w", err)
		}
	}
	return nil
}

// mappingKey identifies a mapping by the fields the caller supplies
// (language and scenario are repository-defaulted, so they stay out of
// the identity).
func mappingKey(wm transport.WireMapping) string {
	return wm.Attribute + "\x00" + wm.Source + "\x00" + wm.Code + "\x00" + wm.Column + "\x00" + wm.Transform
}

// wireSourceEqual compares the scalar fields and props of two wire
// sources.
func wireSourceEqual(a, b transport.WireSource) bool {
	if a.ID != b.ID || a.Kind != b.Kind || a.URL != b.URL || a.Path != b.Path || a.DSN != b.DSN {
		return false
	}
	if len(a.Props) != len(b.Props) {
		return false
	}
	for k, v := range a.Props {
		if b.Props[k] != v {
			return false
		}
	}
	return true
}
