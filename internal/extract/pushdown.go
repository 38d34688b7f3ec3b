package extract

// This file is the extractor side of query planner v2 (internal/planner):
// the record-scoped filter hook that extractSource applies to a source's
// fragments before they enter the result set. The planner's rewrite
// itself runs once per query, in Schema.

import (
	"strings"

	"repro/internal/mapping"
	"repro/internal/s2sql"
)

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
	// Compact in place: every extractor returns a Values slice of its
	// own, made for this one rule execution, so nothing else can see it.
	for _, fi := range idx {
		vals := frags[fi].Values
		n := 0
		for r, v := range vals {
			if keep[r] {
				vals[n] = v
				n++
			}
		}
		clear(vals[n:])
		frags[fi].Values = vals[:n]
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
