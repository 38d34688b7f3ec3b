package extract

// semijoin.go is the extractor side of planner v3: cross-source
// semi-join narrowing.
//
// The planner annotates groups that pushdown had to decline
// solely because a class key makes their records mergeable across
// sources (mapping.SemiJoin). Those records can influence the answer
// only by merging with an instance that shares their key value — so
// extraction runs in two waves: wave one extracts every non-narrowable
// plan and collects the set of key values they produced (the seed);
// wave two runs the narrowable plans restricted to that seed, natively
// (a typed IN predicate appended to the SQL) or via a key record
// filter. A record whose key no other source produced merges with
// nothing; were it kept, its instance would still lack one of the
// planner's EligibleConds attributes — as would any merge of narrowed
// records, because the extractor only narrows when all narrowed groups
// share a common unsatisfied condition — and the residual instance
// filter would reject it. Narrowing is therefore never load-bearing:
// the instance layer re-applies every condition, and any gate failure
// simply runs the plan unnarrowed in wave one.

import (
	"sort"
	"strings"

	"repro/internal/mapping"
	"repro/internal/obs"
	"repro/internal/planner"
)

// splitWaves partitions plans into the immediate wave and the deferred
// (narrowable) wave, returning the lowercased key attribute IDs whose
// values wave one must collect. Everything runs in wave one when
// narrowing is off, the run is a cluster sub-request (the coordinator's
// per-node source lists break the "wave one sees every other source"
// seed-completeness argument), or the narrowed groups share no common
// unsatisfied condition (two narrowed records could then merge into an
// instance the residual filter accepts). A narrowable plan also runs in
// wave one when it carries a non-narrowed group that maps one of the
// run's key attributes: that group's key values must be in the seed (a
// narrowed record elsewhere could merge with its keyed instances), and
// deferring the plan would leave them out. Non-narrowed groups that map
// no key attribute ride along in wave two untouched — their instances
// carry no class-key value, so they merge with nothing and their
// fragments are identical in either wave.
func (m *Manager) splitWaves(plans []mapping.SourcePlan, restricted bool, metrics *obs.Registry) (wave1, wave2 []mapping.SourcePlan, keyAttrs map[string]bool) {
	if restricted || m.opts.DisableSemiJoin {
		return plans, nil, nil
	}
	narrowable := make([]bool, len(plans))
	keySet := map[string]bool{}
	for i := range plans {
		if plans[i].Narrowable() {
			narrowable[i] = true
			for _, sj := range plans[i].SemiJoins {
				keySet[strings.ToLower(sj.KeyAttribute)] = true
			}
		}
	}
	if len(keySet) == 0 {
		return plans, nil, nil
	}
	any := false
	for i := range plans {
		if !narrowable[i] {
			continue
		}
		covered := make([]bool, len(plans[i].Entries))
		for _, sj := range plans[i].SemiJoins {
			for _, ei := range sj.Entries {
				if ei >= 0 && ei < len(covered) {
					covered[ei] = true
				}
			}
		}
		safe := true
		for ei, e := range plans[i].Entries {
			if !covered[ei] && keySet[strings.ToLower(e.AttributeID)] {
				safe = false
				break
			}
		}
		if !safe {
			narrowable[i] = false
			metrics.Counter(obs.MetricPlannerSemiJoin, obs.Labels{"outcome": obs.OutcomeSemiJoinMixed}).Inc()
			continue
		}
		any = true
	}
	if !any {
		return plans, nil, nil
	}
	// Intersect EligibleConds across every narrowed group: the common
	// condition is the one a merge of narrowed records still lacks.
	var common map[int]bool
	for i := range plans {
		if !narrowable[i] {
			continue
		}
		for _, sj := range plans[i].SemiJoins {
			s := make(map[int]bool, len(sj.EligibleConds))
			for _, j := range sj.EligibleConds {
				s[j] = true
			}
			if common == nil {
				common = s
				continue
			}
			for j := range common {
				if !s[j] {
					delete(common, j)
				}
			}
		}
	}
	if len(common) == 0 {
		metrics.Counter(obs.MetricPlannerSemiJoin, obs.Labels{"outcome": obs.OutcomeSemiJoinNoCommon}).Inc()
		return plans, nil, nil
	}
	keyAttrs = make(map[string]bool)
	for i := range plans {
		if narrowable[i] {
			wave2 = append(wave2, plans[i])
			for _, sj := range plans[i].SemiJoins {
				keyAttrs[strings.ToLower(sj.KeyAttribute)] = true
			}
		} else {
			wave1 = append(wave1, plans[i])
		}
	}
	return wave1, wave2, keyAttrs
}

// addSeed merges the key-attribute values of frags into seed, keyed by
// lowercased attribute ID. The empty string is excluded: an instance
// with no key value never merges, so it can never justify keeping a
// narrowed record.
func addSeed(seed map[string]map[string]bool, keyAttrs map[string]bool, frags []Fragment) {
	for _, f := range frags {
		ka := strings.ToLower(f.AttributeID)
		if !keyAttrs[ka] {
			continue
		}
		set := seed[ka]
		if set == nil {
			set = make(map[string]bool)
			seed[ka] = set
		}
		for _, v := range f.Values {
			if v != "" {
				set[v] = true
			}
		}
	}
}

// narrowPlan builds the per-run narrowed copy of one wave-two plan:
// database groups get a typed IN predicate on the key column (original
// code preserved as fallback), other groups get a key record filter.
// Gate failures degrade per group — an oversized
// seed runs that group unnarrowed, an unsafe SQL value falls back to
// the record filter — and never affect correctness.
func (m *Manager) narrowPlan(p mapping.SourcePlan, seed map[string]map[string]bool, metrics *obs.Registry) mapping.SourcePlan {
	maxVals := m.opts.SemiJoinMaxValues
	if maxVals <= 0 {
		maxVals = DefaultSemiJoinMaxValues
	}
	outcome := func(o string) {
		metrics.Counter(obs.MetricPlannerSemiJoin, obs.Labels{"outcome": o}).Inc()
	}
	out := p
	var filters []mapping.RecordFilter
	copied := false
	for _, sj := range p.SemiJoins {
		keys := seed[strings.ToLower(sj.KeyAttribute)]
		if len(keys) == 0 {
			// No other source produced a single key value: every record of
			// this group merges with nothing and is invisible to the answer.
			filters = append(filters, mapping.RecordFilter{
				Entries: sj.Entries, KeyEntry: sj.KeyEntry, KeyIn: map[string]bool{},
			})
			outcome(obs.OutcomeSemiJoinEmpty)
			continue
		}
		if len(keys) > maxVals {
			outcome(obs.OutcomeSemiJoinCapped)
			continue
		}
		if sj.SQL {
			sorted := make([]string, 0, len(keys))
			for k := range keys {
				sorted = append(sorted, k)
			}
			sort.Strings(sorted)
			narrowed := make(map[int]string, len(sj.Entries))
			ok := true
			for _, ei := range sj.Entries {
				code, good := planner.NarrowSQL(p.Entries[ei].Rule.Code, sj.KeyColumn, sorted)
				if !good {
					ok = false
					break
				}
				narrowed[ei] = code
			}
			// All or nothing: a partially narrowed group would misalign the
			// members' row sets.
			if ok {
				if !copied {
					out.Entries = append([]mapping.Entry(nil), p.Entries...)
					copied = true
				}
				for ei, code := range narrowed {
					if out.Entries[ei].Rule.Fallback == "" {
						out.Entries[ei].Rule.Fallback = out.Entries[ei].Rule.Code
					}
					out.Entries[ei].Rule.Code = code
				}
				outcome(obs.OutcomeSemiJoinSQL)
				continue
			}
		}
		filters = append(filters, mapping.RecordFilter{
			Entries: sj.Entries, KeyEntry: sj.KeyEntry, KeyIn: keys,
		})
		outcome(obs.OutcomeSemiJoinFilter)
	}
	if len(filters) > 0 {
		out.Filters = append(append([]mapping.RecordFilter(nil), p.Filters...), filters...)
	}
	return out
}
