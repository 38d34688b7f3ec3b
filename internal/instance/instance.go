// Package instance implements the S2S Instance Generator (paper §2.6): it
// compiles the raw data fragments the extractor produced into ontology
// instances, applies the query's constraints, reports extraction errors,
// and serializes the result — OWL (RDF/XML) first, with Turtle, N-Triples,
// plain XML, JSON, and text as the "other outputs [that] can easily be
// adapted" the paper mentions.
//
// Assembly semantics (the paper leaves them informal; these are the rules
// this implementation commits to):
//
//   - Values of different attributes extracted from the same source
//     correlate by position: the i-th value of each attribute belongs to
//     the i-th record (the n-record scenario of §2.3).
//   - Within one source, attributes are partitioned by class lineage: a
//     brand (product) column and a case (watch) column describe the same
//     watch records, while provider attributes from that source form their
//     own records. Each record's class is the most specific class in its
//     partition.
//   - Across sources, instances of a class merge only when the mapping
//     repository declares a class key and the key values are equal;
//     otherwise sources contribute distinct instances (autonomous sources
//     may describe different individuals).
//   - Relation links attach same-source target instances first; failing
//     that, a unique target instance overall is linked (the paper's
//     single-provider example).
package instance

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/extract"
	"repro/internal/mapping"
	"repro/internal/ontology"
	"repro/internal/s2sql"
)

// Instance is one generated ontology individual.
type Instance struct {
	// ID is a deterministic local identifier, e.g. "watch_1".
	ID string
	// Class is the instance's (most specific) ontology class.
	Class *ontology.Class
	// Attrs holds one entry per attribute, sorted by lower-cased
	// attribute ID; the writers walk it in this order. Entries are cut
	// from one slab per lineage group and their value lists alias the
	// extraction fragments, so neither is ever appended to in place.
	Attrs []Attr
	// Links holds one entry per relation name, sorted by name.
	// Instances with identical link sets share one slice.
	Links []Link
	// Sources lists the data source IDs that contributed values.
	Sources []string

	// orderMemo caches the deterministic ordering key. Valid because
	// Attrs and Sources are immutable once cross-source merging is done,
	// and every sort happens after that; an instance may be sorted
	// several times per query (relation linking plus final ordering).
	orderMemo string
}

// Attr is one attribute of an instance: its lower-cased ID and its
// extracted values in record order.
type Attr struct {
	ID     string
	Values []string
}

// Link is one relation of an instance: its name and the linked
// instances.
type Link struct {
	Name    string
	Targets []*Instance
}

// Value returns the first value of an attribute, or "".
func (in *Instance) Value(attributeID string) string {
	if vs := in.values(strings.ToLower(attributeID)); len(vs) > 0 {
		return vs[0]
	}
	return ""
}

// values returns the values of the attribute whose lower-cased ID is id.
func (in *Instance) values(id string) []string {
	i, ok := slices.BinarySearchFunc(in.Attrs, id, func(a Attr, id string) int { return strings.Compare(a.ID, id) })
	if !ok {
		return nil
	}
	return in.Attrs[i].Values
}

// addSource records a contributing source once.
func (in *Instance) addSource(id string) {
	for _, s := range in.Sources {
		if s == id {
			return
		}
	}
	in.Sources = append(in.Sources, id)
	sort.Strings(in.Sources)
}

// Result is the instance generator's output for one query.
type Result struct {
	// Plan is the query plan the result answers.
	Plan *s2sql.Plan
	// Matched are the instances of the queried class (or subclasses) that
	// satisfy every condition, in deterministic order.
	Matched []*Instance
	// Related are instances of other output classes reachable from Matched
	// through relation links (paper §2.5: the output carries the associated
	// classes).
	Related []*Instance
	// Errors carries extraction and conversion failures (the instance
	// generator "handles the errors from the queries and from the
	// extraction phases", §2.6).
	Errors []extract.SourceError
	// Missing lists attributes in the plan that had no mapping.
	Missing []string
}

// Instances returns matched and related instances, matched first.
func (r *Result) Instances() []*Instance {
	out := make([]*Instance, 0, len(r.Matched)+len(r.Related))
	out = append(out, r.Matched...)
	return append(out, r.Related...)
}

// GenOptions tunes one generation run.
type GenOptions struct {
	// MergeFree declares that the planner proved the query merge-free
	// (planner.ProveMergeFree): no class-key merging, no relation
	// linking, and a single lineage group per source. The generator then
	// keeps its deterministic assembly order — sources in sorted ID
	// order, records in extraction order — as the canonical order
	// instead of running the fingerprint sort, which is what lets the
	// eager path emit instances before extraction finishes
	// (GenerateEager). Both paths answering the same catalog state must
	// agree on this flag, or their outputs diverge; the middleware caches
	// the verdict next to the query plan for exactly that reason.
	MergeFree bool
}

// Generator assembles extraction results into ontology instances.
type Generator struct {
	ont  *ontology.Ontology
	repo *mapping.Repository

	// Provenance, when set, annotates every RDF-serialized instance with
	// s2s:sourcedFrom statements naming its contributing data sources —
	// lineage a B2B consumer can audit.
	Provenance bool
}

// NewGenerator builds a generator over an ontology and its mapping
// repository (used for class keys).
func NewGenerator(ont *ontology.Ontology, repo *mapping.Repository) *Generator {
	return &Generator{ont: ont, repo: repo}
}

// GenerateOpts compiles raw fragments into instances and applies the
// plan's conditions, under the given generation options.
func (g *Generator) GenerateOpts(plan *s2sql.Plan, rs *extract.ResultSet, opts GenOptions) (*Result, error) {
	if plan == nil {
		return nil, fmt.Errorf("instance: nil plan")
	}
	res := &Result{Plan: plan}
	if rs != nil {
		res.Errors = append(res.Errors, rs.Errors...)
		res.Missing = append(res.Missing, rs.Missing...)
	}

	all, errs := g.assemble(rs)
	res.Errors = append(res.Errors, errs...)
	g.finish(res, all, opts)
	return res, nil
}

// finish runs everything after assembly — relation linking, the
// matched/related partition under the plan's conditions, deterministic
// ordering, and ID numbering. Under a merge-free proof
// (GenOptions.MergeFree) the fingerprint sort is skipped: assembly
// order is already canonical, and the eager path (GenerateEager)
// numbers and emits in that same order.
func (g *Generator) finish(res *Result, all []*Instance, opts GenOptions) {
	plan := res.Plan
	g.link(all)

	// Partition into matched (queried class, conditions hold) and the rest.
	condKeys := conditionKeys(plan.Conditions)
	var others []*Instance
	for _, in := range all {
		if in.Class.IsA(plan.Class) {
			ok, err := satisfiesAll(in, plan.Conditions, condKeys)
			if err != nil {
				res.Errors = append(res.Errors, conditionError(in, err))
				continue
			}
			if ok {
				res.Matched = append(res.Matched, in)
				continue
			}
		}
		others = append(others, in)
	}

	// Related instances: reachable from matched via links.
	reachable := map[*Instance]bool{}
	var walk func(in *Instance)
	walk = func(in *Instance) {
		for _, l := range in.Links {
			for _, t := range l.Targets {
				if !reachable[t] {
					reachable[t] = true
					walk(t)
				}
			}
		}
	}
	matchedSet := map[*Instance]bool{}
	for _, in := range res.Matched {
		matchedSet[in] = true
		walk(in)
	}
	for _, in := range others {
		if reachable[in] && !matchedSet[in] {
			res.Related = append(res.Related, in)
		}
	}

	if !opts.MergeFree {
		sortInstances(res.Matched)
		sortInstances(res.Related)
	}
	g.number(res)
}

// assemble builds instances from fragments source by source.
func (g *Generator) assemble(rs *extract.ResultSet) ([]*Instance, []extract.SourceError) {
	if rs == nil {
		return nil, nil
	}
	var errs []extract.SourceError

	// Group fragments by source. Extraction emits each source's fragments
	// as one contiguous run, so the common case aliases a capacity-capped
	// subslice of rs.Fragments instead of copying; a source split across
	// runs falls back to append (which copies, thanks to the capped cap).
	bySource := map[string][]extract.Fragment{}
	var sourceOrder []string
	fs := rs.Fragments
	for start := 0; start < len(fs); {
		end := start + 1
		for end < len(fs) && fs[end].SourceID == fs[start].SourceID {
			end++
		}
		id := fs[start].SourceID
		if existing, ok := bySource[id]; ok {
			bySource[id] = append(existing, fs[start:end]...)
		} else {
			sourceOrder = append(sourceOrder, id)
			bySource[id] = fs[start:end:end]
		}
		start = end
	}
	sort.Strings(sourceOrder)

	var all []*Instance
	for _, sourceID := range sourceOrder {
		var srcErrs []extract.SourceError
		all, srcErrs = g.assembleSource(all, sourceID, bySource[sourceID])
		errs = append(errs, srcErrs...)
	}

	// Merge across sources by class key.
	return g.mergeByKey(all), errs
}

// assembleSource is the one assembler: it appends to dst the instances
// of one source built from that source's fragments — by the
// materialized path for every source in turn, by the eager sink for
// each source as it finishes — by lineage partition and positional
// correlation, group-major.
func (g *Generator) assembleSource(dst []*Instance, sourceID string, frags []extract.Fragment) ([]*Instance, []extract.SourceError) {
	groups, errs := g.partition(sourceID, frags)
	for _, grp := range groups {
		dst = append(dst, grp.instances(sourceID)...)
	}
	return dst, errs
}

// lineageGroup is a set of fragments whose attribute classes lie on one
// root-to-leaf chain; they describe the same records.
type lineageGroup struct {
	class *ontology.Class // most specific class
	frags []extract.Fragment
}

// partition splits one source's fragments into lineage groups.
func (g *Generator) partition(sourceID string, frags []extract.Fragment) ([]*lineageGroup, []extract.SourceError) {
	var groups []*lineageGroup
	var errs []extract.SourceError
	for _, f := range frags {
		attr, ok := g.ont.Attribute(f.AttributeID)
		if !ok {
			errs = append(errs, extract.SourceError{
				SourceID:    sourceID,
				AttributeID: f.AttributeID,
				Err:         fmt.Errorf("instance: extracted attribute is not in the ontology"),
			})
			continue
		}
		cls := attr.Class
		placed := false
		for _, grp := range groups {
			switch {
			case cls.IsA(grp.class):
				// Same class or a descendant: the group's class deepens to
				// the most specific one.
				grp.frags = append(grp.frags, f)
				grp.class = cls
				placed = true
			case grp.class.IsA(cls):
				// An ancestor attribute (e.g. product.brand joining a watch
				// group): the group's class stays the deeper one.
				grp.frags = append(grp.frags, f)
				placed = true
			}
			if placed {
				break
			}
		}
		if !placed {
			groups = append(groups, &lineageGroup{class: cls, frags: []extract.Fragment{f}})
		}
	}
	return groups, errs
}

// instances expands a lineage group into per-record instances using
// positional correlation.
func (grp *lineageGroup) instances(sourceID string) []*Instance {
	// Attribute IDs lower-case and sort once per group, stably, so a
	// repeated attribute keeps fragment order.
	records := 0
	cols := make([]Attr, len(grp.frags))
	for j, f := range grp.frags {
		records = max(records, len(f.Values))
		cols[j] = Attr{ID: strings.ToLower(f.AttributeID), Values: f.Values}
	}
	slices.SortStableFunc(cols, func(a, b Attr) int { return strings.Compare(a.ID, b.ID) })
	// One arena for the record batch, one slab every record's Attrs is
	// cut from, and one shared Sources slice: it is immutable here (cap
	// == len, so addSource's append during merging copies first).
	sources := []string{sourceID}
	arena := make([]Instance, records)
	slab := make([]Attr, 0, records*len(cols))
	out := make([]*Instance, records)
	for i := range arena {
		start := len(slab)
		for _, c := range cols {
			if i >= len(c.Values) {
				continue
			}
			if n := len(slab); n > start && slab[n-1].ID == c.ID {
				// A repeated attribute: the capped alias makes this copy.
				slab[n-1].Values = append(slab[n-1].Values, c.Values[i])
				continue
			}
			// Alias a capacity-capped subslice of the fragment instead of
			// allocating a one-element slice per value; the cap keeps any
			// later append from writing into the fragment (or the rule
			// cache behind it).
			slab = append(slab, Attr{ID: c.ID, Values: c.Values[i : i+1 : i+1]})
		}
		in := &arena[i]
		in.Class = grp.class
		in.Attrs = slab[start:len(slab):len(slab)]
		in.Sources = sources
		out[i] = in
	}
	return out
}

// mergeByKey merges instances of a class when the mapping repository
// declares a key attribute and key values match.
func (g *Generator) mergeByKey(all []*Instance) []*Instance {
	if g.repo == nil {
		return all
	}
	// One snapshot instead of a repository lock round-trip per instance;
	// no declared keys means nothing can merge.
	keys := g.repo.ClassKeys()
	if len(keys) == 0 {
		return all
	}
	keyAttrOf := make(map[*ontology.Class]string, 4)
	byKey := map[string]*Instance{}
	var out []*Instance
	for _, in := range all {
		keyAttr, ok := keyAttrOf[in.Class]
		if !ok {
			keyAttr = keys[strings.ToLower(in.Class.Name)]
			keyAttrOf[in.Class] = keyAttr
		}
		if keyAttr == "" {
			out = append(out, in)
			continue
		}
		keyVal := in.Value(keyAttr)
		if keyVal == "" {
			out = append(out, in)
			continue
		}
		mapKey := strings.ToLower(in.Class.Name) + "\x00" + keyVal
		if existing, ok := byKey[mapKey]; ok {
			existing.Attrs = mergeAttrs(existing.Attrs, in.Attrs)
			for _, s := range in.Sources {
				existing.addSource(s)
			}
			continue
		}
		byKey[mapKey] = in
		out = append(out, in)
	}
	return out
}

// mergeAttrs returns the sorted union of two Attrs lists as a fresh
// slice, since either may be cut from a slab. On an attribute both
// carry, a's values win unless a has none.
func mergeAttrs(a, b []Attr) []Attr {
	out := make([]Attr, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch c := strings.Compare(a[0].ID, b[0].ID); {
		case c < 0:
			out, a = append(out, a[0]), a[1:]
		case c > 0:
			out, b = append(out, b[0]), b[1:]
		default:
			if len(a[0].Values) == 0 {
				out = append(out, b[0])
			} else {
				out = append(out, a[0])
			}
			a, b = a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// link attaches relation targets: same-source instances first, then a
// globally unique target.
func (g *Generator) link(all []*Instance) {
	byClass := map[*ontology.Class][]*Instance{}
	for _, in := range all {
		byClass[in.Class] = append(byClass[in.Class], in)
	}
	// Instances of a class also count as instances of its ancestors; the
	// per-target-class result is cached, since link runs once per instance.
	cache := map[*ontology.Class][]*Instance{}
	instancesOf := func(c *ontology.Class) []*Instance {
		if got, ok := cache[c]; ok {
			return got
		}
		var out []*Instance
		for cls, ins := range byClass {
			if cls.IsA(c) {
				out = append(out, ins...)
			}
		}
		sortInstances(out)
		cache[c] = out
		return out
	}

	// Relations visible on a class (own + inherited) are the same for
	// every instance of that class; resolve once per class, in name
	// order. The sort is stable, so a name repeated up the hierarchy
	// keeps own-before-inherited order and the last non-empty one wins.
	relsCache := map[*ontology.Class][]*ontology.Relation{}
	relsOf := func(c *ontology.Class) []*ontology.Relation {
		if got, ok := relsCache[c]; ok {
			return got
		}
		var rels []*ontology.Relation
		for p := c; p != nil; p = p.Parent {
			rels = append(rels, p.Relations...)
		}
		slices.SortStableFunc(rels, func(a, b *ontology.Relation) int { return strings.Compare(a.Name, b.Name) })
		relsCache[c] = rels
		return rels
	}

	// Targets of a relation grouped by contributing source, in target
	// order. Single-source instances that are not themselves targets
	// share the grouped slice directly instead of building their own.
	bySourceCache := map[*ontology.Class]map[string][]*Instance{}
	targetsBySource := func(c *ontology.Class) map[string][]*Instance {
		if got, ok := bySourceCache[c]; ok {
			return got
		}
		m := map[string][]*Instance{}
		for _, t := range instancesOf(c) {
			for _, s := range t.Sources {
				m[s] = append(m[s], t)
			}
		}
		bySourceCache[c] = m
		return m
	}

	// Single-source instances of one class compute identical link sets
	// unless the instance is itself among the candidate targets; those
	// identical sets share one Links slice — safe because Links are
	// read-only once link returns.
	type classSource struct {
		class  *ontology.Class
		source string
	}
	linksShared := map[classSource][]Link{}
	var chosenScratch [][]*Instance

	for _, in := range all {
		rels := relsOf(in.Class)
		if len(rels) == 0 {
			continue
		}
		chosenByRel := chosenScratch[:0]
		shareable := len(in.Sources) == 1
		nonEmpty := 0
		for _, r := range rels {
			targets := instancesOf(r.To)
			var chosen []*Instance
			if len(targets) > 0 {
				if len(in.Sources) == 1 {
					// Fast path: same-source targets are precomputed in
					// target order; when the instance is not among them the
					// slice is shared as-is, allocation-free.
					cand := targetsBySource(r.To)[in.Sources[0]]
					switch self := slices.Index(cand, in); {
					case self < 0:
						chosen = cand
					case len(cand) > 1:
						shareable = false
						chosen = make([]*Instance, 0, len(cand)-1)
						chosen = append(append(chosen, cand[:self]...), cand[self+1:]...)
					default:
						shareable = false
					}
				} else {
					// Count first, then allocate exactly once: incremental
					// append growth was a measurable share of generation
					// allocations.
					n := 0
					for _, t := range targets {
						if t != in && shareSource(in, t) {
							n++
						}
					}
					if n > 0 {
						chosen = make([]*Instance, 0, n)
						for _, t := range targets {
							if t != in && shareSource(in, t) {
								chosen = append(chosen, t)
							}
						}
					}
				}
				if len(chosen) == 0 && len(targets) == 1 {
					if targets[0] != in {
						chosen = targets
					} else {
						shareable = false
					}
				}
			}
			chosenByRel = append(chosenByRel, chosen)
			if len(chosen) > 0 {
				nonEmpty++
			}
		}
		chosenScratch = chosenByRel
		if nonEmpty == 0 {
			continue
		}
		if shareable {
			if links, ok := linksShared[classSource{in.Class, in.Sources[0]}]; ok {
				in.Links = links
				continue
			}
		}
		links := make([]Link, 0, nonEmpty)
		for i, r := range rels {
			switch n := len(links); {
			case len(chosenByRel[i]) == 0:
			case n > 0 && links[n-1].Name == r.Name:
				links[n-1].Targets = chosenByRel[i]
			default:
				links = append(links, Link{Name: r.Name, Targets: chosenByRel[i]})
			}
		}
		in.Links = links
		if shareable {
			linksShared[classSource{in.Class, in.Sources[0]}] = links
		}
	}
}

func shareSource(a, b *Instance) bool {
	return slices.ContainsFunc(a.Sources, func(s string) bool { return slices.Contains(b.Sources, s) })
}

// sortInstances orders deterministically by ordering key: class path,
// then value fingerprint, then source list. Each instance's key is built
// once (see orderMemo) through one scratch buffer; rebuilding keys per
// comparison made large-result sorting the pipeline's hot spot.
func sortInstances(ins []*Instance) {
	var buf []byte
	for _, in := range ins {
		if in.orderMemo == "" {
			buf = in.orderKey(buf[:0])
			in.orderMemo = string(buf)
		}
	}
	slices.SortStableFunc(ins, func(a, b *Instance) int { return strings.Compare(a.orderMemo, b.orderMemo) })
}

// orderKey appends the instance's ordering key to b: the class path,
// then every attribute as "id=v1|v2;" in Attrs order, then the sources
// joined by ",", the three parts separated by NUL bytes.
func (in *Instance) orderKey(b []byte) []byte {
	b = append(append(b, in.Class.Path()...), 0)
	for _, a := range in.Attrs {
		b = append(append(b, a.ID...), '=')
		for i, v := range a.Values {
			if i > 0 {
				b = append(b, '|')
			}
			b = append(b, v...)
		}
		b = append(b, ';')
	}
	b = append(b, 0)
	for i, src := range in.Sources {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, src...)
	}
	return b
}

// number assigns deterministic instance IDs after ordering.
func (g *Generator) number(res *Result) {
	counters := map[string]int{}
	assign := func(ins []*Instance) {
		for _, in := range ins {
			counters[in.Class.Name]++
			in.ID = in.Class.Name + "_" + strconv.Itoa(counters[in.Class.Name])
		}
	}
	assign(res.Matched)
	assign(res.Related)
}
