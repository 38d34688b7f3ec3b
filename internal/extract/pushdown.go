package extract

// This file is the extractor side of query planner v2 (internal/planner):
// the per-query-shape rewrite cache and the record-scoped filter hook
// that extractSource applies to a source's fragments before they enter
// the result set.

import (
	"strconv"
	"strings"

	"repro/internal/mapping"
	"repro/internal/planner"
	"repro/internal/s2sql"
)

// rewriteEntry is one cached planner rewrite.
type rewriteEntry struct {
	plans []mapping.SourcePlan
	stats planner.Stats
}

// rewriteCacheBound caps the rewrite cache; past it the cache is flushed
// wholesale, like the other bounded caches in this package. Query shapes
// are few (distinct class + condition signatures), so the bound exists
// only as a runaway backstop.
const rewriteCacheBound = 256

// plannedRewrite returns the planner's rewrite of plans for qplan,
// cached per query shape. InvalidateCache flushes the cache, so a
// remapped rule can never serve a stale pushed-down plan.
func (m *Manager) plannedRewrite(qplan *s2sql.Plan, attributeIDs []string, plans []mapping.SourcePlan) ([]mapping.SourcePlan, planner.Stats) {
	key := strings.Join(attributeIDs, "\x00") + "\x01" + querySig(qplan)
	m.rewriteMu.RLock()
	e, ok := m.rewrites[key]
	m.rewriteMu.RUnlock()
	if ok {
		return e.plans, e.stats
	}
	res := planner.Rewrite(m.repo.Ontology(), m.repo.ClassKeys(), qplan, plans)
	m.rewriteMu.Lock()
	if m.rewrites == nil || len(m.rewrites) >= rewriteCacheBound {
		m.rewrites = make(map[string]rewriteEntry, 16)
	}
	m.rewrites[key] = rewriteEntry{plans: res.Plans, stats: res.Stats}
	m.rewriteMu.Unlock()
	return res.Plans, res.Stats
}

// querySig is the condition-relevant shape of a query plan: the queried
// class plus each condition's attribute, operator, and literal. Plans
// with equal signatures (and equal attribute lists) rewrite identically.
func querySig(p *s2sql.Plan) string {
	var b strings.Builder
	b.WriteString(p.Class.Name)
	for _, c := range p.Conditions {
		b.WriteByte('\x00')
		b.WriteString(c.Attribute.ID())
		b.WriteByte('\x00')
		b.WriteString(string(c.Op))
		b.WriteByte('\x00')
		b.WriteString(strconv.Itoa(int(c.Value.Kind)))
		b.WriteByte('\x00')
		b.WriteString(c.Value.Text)
	}
	return b.String()
}

// applyRecordFilter drops record positions that fail the filter's
// conditions from the filter group's fragments. fragAt maps entry index
// to position in frags (-1 when the entry produced no fragment — its
// rule failed — in which case the surviving members still correlate
// positionally and are filtered as the partial group).
//
// The evaluation mirrors the instance layer exactly — same value order,
// same existential match, same error semantics via s2sql.EvalCondition —
// and any record whose evaluation would error is kept, so the instance
// generator reports the identical error. Dropping is all-or-nothing per
// record position across every member fragment, preserving the
// positional zip the instance generator performs.
func applyRecordFilter(frags []Fragment, fragAt []int, f mapping.RecordFilter) {
	var idx []int
	for _, ei := range f.Entries {
		if ei >= 0 && ei < len(fragAt) && fragAt[ei] >= 0 {
			idx = append(idx, fragAt[ei])
		}
	}
	if len(idx) == 0 {
		return
	}
	records := 0
	for _, fi := range idx {
		if n := len(frags[fi].Values); n > records {
			records = n
		}
	}
	if records == 0 {
		return
	}
	// Fragments relevant per condition, in fragment (= entry) order, the
	// order the instance layer sees values in.
	condFrags := make([][]int, len(f.Conditions))
	for j, c := range f.Conditions {
		key := strings.ToLower(c.Attribute.ID())
		for _, fi := range idx {
			if strings.ToLower(frags[fi].AttributeID) == key {
				condFrags[j] = append(condFrags[j], fi)
			}
		}
	}
	keep := make([]bool, records)
	kept := 0
	for r := 0; r < records; r++ {
		if keepRecord(frags, condFrags, f.Conditions, r) {
			keep[r] = true
			kept++
		}
	}
	if f.KeyIn != nil {
		// Semi-join narrowing (planner v3, see semijoin.go): a record whose
		// key value no first-wave source produced merges with nothing, and
		// its standalone instance provably fails the residual filter. A
		// position with no key value (failed key rule, short fragment) never
		// merges either. Exact string match, mirroring the merge key; this
		// check cannot error, so no error-keeping applies.
		kfi := -1
		if f.KeyEntry >= 0 && f.KeyEntry < len(fragAt) {
			kfi = fragAt[f.KeyEntry]
		}
		for r := 0; r < records; r++ {
			if !keep[r] {
				continue
			}
			v := ""
			if kfi >= 0 && r < len(frags[kfi].Values) {
				v = frags[kfi].Values[r]
			}
			if v == "" || !f.KeyIn[v] {
				keep[r] = false
				kept--
			}
		}
	}
	if kept == records {
		return
	}
	for _, fi := range idx {
		vals := frags[fi].Values
		out := make([]string, 0, kept)
		for r, v := range vals {
			if keep[r] {
				out = append(out, v)
			}
		}
		frags[fi].Values = out
	}
}

// keepRecord evaluates one record position against the conditions in
// order, mirroring satisfiesAll/satisfies in internal/instance.
func keepRecord(frags []Fragment, condFrags [][]int, conds []s2sql.PlannedCondition, r int) bool {
	for j, c := range conds {
		matched := false
		for _, fi := range condFrags[j] {
			vals := frags[fi].Values
			if r >= len(vals) {
				continue
			}
			ok, err := s2sql.EvalCondition(vals[r], c)
			if err != nil {
				// The instance layer must reproduce and report this error;
				// keep the record so it can.
				return true
			}
			if ok {
				matched = true
				break
			}
		}
		if !matched {
			return false
		}
	}
	return true
}
