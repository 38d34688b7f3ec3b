package planner

// mergefree.go is the planner side of barrier-free streaming
// (docs/STREAMING.md, "Barrier-free emission"): a static proof that a
// planned query can never merge, link, or key-join instances across
// fragments, so the instance generator's deterministic assembly order
// is already canonical and the eager path may emit each source's
// instances as the source finishes extracting, without the ordering
// barrier.
//
// The proof is conservative and option-independent: it looks only at
// the ontology, the declared class keys, and the unrewritten extraction
// schema — never at pushdown or semi-join settings — so every execution
// path of the same catalog state (materializing, streaming, cluster
// scatter-gather, pushdown disabled) reaches the same verdict and the
// same canonical instance order. Like every planner decision it is
// sound, not load-bearing: a false verdict only means the barrier runs.

import (
	"fmt"

	"repro/internal/mapping"
	"repro/internal/ontology"
)

// Merge-free proof outcomes; MergeFreeVerdict.Outcome is one of these,
// and they label the s2s_planner_mergefree_total counter.
const (
	// MergeFreeProved: every condition held, the barrier can be skipped.
	MergeFreeProved = "proved"
	// MergeFreeUnmappedAttr: an entry's attribute is not in the ontology,
	// so its lineage class is unknown.
	MergeFreeUnmappedAttr = "unmapped_attribute"
	// MergeFreeRelations: a produced instance class (or an ancestor)
	// declares relations, or is a relation target, so linking could
	// populate Links or Related.
	MergeFreeRelations = "relations"
	// MergeFreeClassKey: a declared class key is comparable with an entry
	// class, so cross-source key merging (or a semi-join second wave)
	// could occur.
	MergeFreeClassKey = "class_key"
	// MergeFreeMultiGroup: a source's entries span more than one lineage
	// chain, so pruning could reorder that source's groups.
	MergeFreeMultiGroup = "multi_group"
)

// MergeFreeVerdict is the result of ProveMergeFree.
type MergeFreeVerdict struct {
	// OK reports that the plan is provably merge-free.
	OK bool
	// Outcome is the MergeFree* constant naming the verdict (the first
	// failed condition, or MergeFreeProved).
	Outcome string
	// Detail is the human-readable reason for a declined proof.
	Detail string
}

// ProveMergeFree decides whether the extraction schema of one query is
// merge-free: no instance the pipeline builds from it can be merged by
// a class key, linked to another instance, or joined by a semi-join
// second wave, and every source's entries form a single lineage group.
// Under those conditions the generator's assembly order — sources in
// sorted ID order, records in extraction order — is deterministic and
// identical on every execution path, so it replaces the fingerprint
// sort as the canonical order and instances can stream out as sources
// complete (docs/STREAMING.md).
//
// plans must be the unrewritten repository schema (mapping.Repository
// Schema) so the verdict is independent of pushdown options; the
// single-group condition is stable under the planner's pruning, because
// a group's member classes lie on one root-to-leaf chain and every
// subset of a chain is still a chain.
func ProveMergeFree(ont *ontology.Ontology, classKeys map[string]string, plans []mapping.SourcePlan) MergeFreeVerdict {
	if ont == nil {
		return MergeFreeVerdict{Outcome: MergeFreeUnmappedAttr, Detail: "no ontology"}
	}
	// Relation targets across the whole ontology (as in Rewrite): an
	// instance of a target class can be linked into Related by instances
	// of the relation's From class, so target classes decline too.
	var relTargets []*ontology.Class
	for _, c := range ont.Classes() {
		for _, r := range c.Relations {
			relTargets = append(relTargets, r.To)
		}
	}
	for _, sp := range plans {
		var groups []*group
		for _, e := range sp.Entries {
			attr, ok := ont.Attribute(e.AttributeID)
			if !ok {
				return MergeFreeVerdict{
					Outcome: MergeFreeUnmappedAttr,
					Detail:  fmt.Sprintf("attribute %s not in ontology", e.AttributeID),
				}
			}
			cls := attr.Class

			// No produced class may reach a relation: the instance
			// generator links from a class or any of its ancestors, so a
			// relation anywhere on the chain can populate Links/Related.
			for p := cls; p != nil; p = p.Parent {
				if len(p.Relations) > 0 {
					return MergeFreeVerdict{
						Outcome: MergeFreeRelations,
						Detail:  fmt.Sprintf("class %s declares relation %s", p.Name, p.Relations[0].Name),
					}
				}
			}
			for _, t := range relTargets {
				if cls.IsA(t) || t.IsA(cls) {
					return MergeFreeVerdict{
						Outcome: MergeFreeRelations,
						Detail:  fmt.Sprintf("entry class %s is a relation target", cls.Name),
					}
				}
			}

			// No declared class key may be comparable with an entry class:
			// key merging (and with it the semi-join second wave) applies
			// exactly to instances of keyed classes.
			for keyClass := range classKeys {
				kc, ok := ont.Class(keyClass)
				if !ok {
					return MergeFreeVerdict{
						Outcome: MergeFreeClassKey,
						Detail:  fmt.Sprintf("class key on unresolved class %s", keyClass),
					}
				}
				if cls.IsA(kc) || kc.IsA(cls) {
					return MergeFreeVerdict{
						Outcome: MergeFreeClassKey,
						Detail:  fmt.Sprintf("class key on %s is comparable with entry class %s", keyClass, cls.Name),
					}
				}
			}

			// Simulate the generator's greedy lineage partition in entry
			// order (same algorithm as rewriteSource); more than one group
			// per source declines the proof.
			placed := false
			for _, grp := range groups {
				switch {
				case cls.IsA(grp.class):
					grp.class = cls
					placed = true
				case grp.class.IsA(cls):
					placed = true
				}
				if placed {
					break
				}
			}
			if !placed {
				groups = append(groups, &group{class: cls})
				if len(groups) > 1 {
					return MergeFreeVerdict{
						Outcome: MergeFreeMultiGroup,
						Detail: fmt.Sprintf("source %s partitions into multiple lineage groups (%s vs %s)",
							sp.Source.ID, groups[0].class.Name, cls.Name),
					}
				}
			}
		}
	}
	return MergeFreeVerdict{OK: true, Outcome: MergeFreeProved}
}
