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
	// Values maps attribute IDs to extracted values in record order.
	Values map[string][]string
	// Links maps relation names to linked instances.
	Links map[string][]*Instance
	// Sources lists the data source IDs that contributed values.
	Sources []string

	// orderMemo caches the deterministic ordering key. Valid because
	// Values and Sources are immutable once cross-source merging is done,
	// and every sort happens after that; an instance may be sorted
	// several times per query (relation linking plus final ordering).
	orderMemo string
}

// Value returns the first value of an attribute, or "".
func (in *Instance) Value(attributeID string) string {
	vs := in.Values[strings.ToLower(attributeID)]
	if len(vs) == 0 {
		return ""
	}
	return vs[0]
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
		for _, targets := range in.Links {
			for _, t := range targets {
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
	records := 0
	for _, f := range grp.frags {
		if len(f.Values) > records {
			records = len(f.Values)
		}
	}
	// Attribute keys lower-case once per group, not once per value; Links
	// maps allocate lazily in link() since most instances have none.
	// Groups almost always carry distinct attributes, in which case the
	// per-value existence lookup below is skipped entirely.
	keys := make([]string, len(grp.frags))
	unique := true
	for j, f := range grp.frags {
		keys[j] = strings.ToLower(f.AttributeID)
		for k := 0; k < j; k++ {
			if keys[k] == keys[j] {
				unique = false
			}
		}
	}
	// One arena allocation for the whole record batch, and one shared
	// Sources slice: it is immutable here (cap == len, so addSource's
	// append during cross-source merging copies before writing).
	sources := []string{sourceID}
	arena := make([]Instance, records)
	out := make([]*Instance, 0, records)
	for i := 0; i < records; i++ {
		in := &arena[i]
		in.Class = grp.class
		in.Values = make(map[string][]string, len(grp.frags))
		in.Sources = sources
		for j, f := range grp.frags {
			if i >= len(f.Values) {
				continue
			}
			// Alias a capacity-capped subslice of the fragment instead of
			// allocating a one-element slice per value; the cap keeps any
			// later append from writing into the fragment (or the rule
			// cache behind it).
			if unique {
				in.Values[keys[j]] = f.Values[i : i+1 : i+1]
				continue
			}
			if vs, ok := in.Values[keys[j]]; ok {
				in.Values[keys[j]] = append(vs, f.Values[i])
			} else {
				in.Values[keys[j]] = f.Values[i : i+1 : i+1]
			}
		}
		out = append(out, in)
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
			for attr, vs := range in.Values {
				if len(existing.Values[attr]) == 0 {
					existing.Values[attr] = vs
				}
			}
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
	// every instance of that class; resolve once per class.
	relsCache := map[*ontology.Class][]*ontology.Relation{}
	relsOf := func(c *ontology.Class) []*ontology.Relation {
		if got, ok := relsCache[c]; ok {
			return got
		}
		var rels []*ontology.Relation
		for p := c; p != nil; p = p.Parent {
			rels = append(rels, p.Relations...)
		}
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
	// identical sets share one Links map — safe because Links are
	// read-only once link returns. The per-instance map allocation was
	// the single largest line in the generation allocation profile.
	type classSource struct {
		class  *ontology.Class
		source string
	}
	linksShared := map[classSource]map[string][]*Instance{}
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
					self := -1
					for i, t := range cand {
						if t == in {
							self = i
							break
						}
					}
					switch {
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
			if m, ok := linksShared[classSource{in.Class, in.Sources[0]}]; ok {
				in.Links = m
				continue
			}
		}
		m := make(map[string][]*Instance, nonEmpty)
		for i, r := range rels {
			if len(chosenByRel[i]) > 0 {
				m[r.Name] = chosenByRel[i]
			}
		}
		in.Links = m
		if shareable {
			linksShared[classSource{in.Class, in.Sources[0]}] = m
		}
	}
}

func shareSource(a, b *Instance) bool {
	for _, sa := range a.Sources {
		for _, sb := range b.Sources {
			if sa == sb {
				return true
			}
		}
	}
	return false
}

// sortInstances orders deterministically: by class path, then value
// fingerprint, then source list. Keys are precomputed; rebuilding them per
// comparison made large-result sorting the pipeline's hot spot.
func sortInstances(ins []*Instance) {
	s := &instanceSort{ins: ins, keys: make([]string, len(ins))}
	for i, in := range ins {
		s.keys[i] = in.orderKey()
	}
	sort.Stable(s)
}

// orderKey returns the instance's full ordering key, computed once (see
// orderMemo).
func (in *Instance) orderKey() string {
	if in.orderMemo == "" {
		in.orderMemo = in.Class.Path() + "\x00" + in.sortKey() + "\x00" + strings.Join(in.Sources, ",")
	}
	return in.orderMemo
}

type instanceSort struct {
	ins  []*Instance
	keys []string
}

func (s *instanceSort) Len() int           { return len(s.ins) }
func (s *instanceSort) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *instanceSort) Swap(i, j int) {
	s.ins[i], s.ins[j] = s.ins[j], s.ins[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

func (in *Instance) sortKey() string {
	ids := make([]string, 0, len(in.Values))
	for id := range in.Values {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	for _, id := range ids {
		b.WriteString(id)
		b.WriteByte('=')
		b.WriteString(strings.Join(in.Values[id], "|"))
		b.WriteByte(';')
	}
	return b.String()
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
