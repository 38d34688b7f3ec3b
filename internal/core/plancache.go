package core

import (
	"sync"

	"repro/internal/extract"
	"repro/internal/s2sql"
)

// planCacheBound caps the plan cache. At the bound it flushes wholesale
// rather than tracking recency, which is free on the hot path and
// pathological only for workloads with more distinct hot query strings
// than this.
const planCacheBound = 512

// prepared is everything the pipeline derives from a query string before
// extraction: the compiled plan, its extraction schema (the planner's
// rewrite included) and the merge-free verdict proved over that schema.
// All of it depends only on the query text and the catalog. Prepared
// queries are shared across concurrent queries and are read-only.
type prepared struct {
	plan      *s2sql.Plan
	mergeFree bool
	// schema is nil when obtaining it failed; schemaErr then holds the
	// error extraction reports, and mergeFree is false.
	schema    *extract.Schema
	schemaErr error
}

// planCache is the one cache of what a query string derives: query
// string → prepared query. The middleware flushes it on every catalog
// mutation that could affect planning or extraction (RegisterSource,
// RegisterMapping, SetClassKey) — conservatively: correctness never
// rides on knowing which mutations matter. A cached verdict and schema
// therefore never outlive the state they were derived from, which is
// what keeps every execution path of one catalog state agreeing on the
// canonical instance order.
//
// Entries are also indexed by plan pointer, under the same lock, flush
// and bound, so a caller holding a plan from PlanMergeFree finds its
// schema without re-deriving it.
type planCache struct {
	mu     sync.RWMutex
	m      map[string]*prepared
	byPlan map[*s2sql.Plan]*prepared
	// gen counts flushes. A prepared query is stored only if no flush
	// happened since the lookup that missed, so one derived from the
	// catalog a mutation just replaced is used once and not kept.
	gen uint64
}

func newPlanCache() *planCache {
	return &planCache{m: make(map[string]*prepared), byPlan: make(map[*s2sql.Plan]*prepared)}
}

// get returns the query's entry, and the flush generation to hand put
// on a miss.
func (c *planCache) get(query string) (*prepared, uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.m[query], c.gen
}

// lookup returns the entry holding plan, if it is still cached.
func (c *planCache) lookup(plan *s2sql.Plan) *prepared {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.byPlan[plan]
}

// put stores p for query unless the cache was flushed since generation
// gen, and returns the entry to use: an entry a concurrent miss stored
// first wins, so every caller shares one plan per query string.
func (c *planCache) put(query string, gen uint64, p *prepared) *prepared {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		return p
	}
	if e := c.m[query]; e != nil {
		return e
	}
	if len(c.m) >= planCacheBound {
		c.flushLocked()
	}
	c.m[query] = p
	c.byPlan[p.plan] = p
	return p
}

func (c *planCache) invalidate() {
	c.mu.Lock()
	c.flushLocked()
	c.gen++
	c.mu.Unlock()
}

func (c *planCache) flushLocked() {
	c.m = make(map[string]*prepared)
	c.byPlan = make(map[*s2sql.Plan]*prepared)
}

func (c *planCache) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}
