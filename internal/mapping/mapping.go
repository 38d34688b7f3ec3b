// Package mapping implements the S2S Mapping Module (paper §2.3): the
// formal link between remote data and the local ontology. A mapping entry
// relates an ontology attribute to an extraction rule and a registered data
// source, exactly as the paper's examples record it:
//
//	thing.product.brand      = watch.webl, wpage_81
//	thing.product.watch.case = SELECT aatribute FROM atable WHERE ..., DB_ID_45
//
// Registration follows the three steps of Figure 3 — attribute naming,
// extraction rule definition, attribute mapping — and the repository
// validates each step eagerly: the attribute must exist in the ontology,
// the source must be registered, the rule language must suit the source
// kind, and the rule itself must compile. Mappings are created manually
// (paper: "the mapping procedures are carried out manually... offers the
// highest degree of data extraction accuracy").
package mapping

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"sync"

	"repro/internal/datasource"
	"repro/internal/ontology"
	"repro/internal/s2sql"
	"repro/internal/selector"
	"repro/internal/sqllang"
	"repro/internal/webl"
	"repro/internal/xmlpath"
)

// Language identifies the extraction rule language of an entry.
type Language int

// Rule languages, one per source kind (paper §2.3.1 step 2).
const (
	LangSQL Language = iota + 1
	LangXPath
	LangWebL
	LangRegex
	// LangSelector is a CSS-selector rule, the alternative wrapper language
	// for web sources (internal/selector).
	LangSelector
)

func (l Language) String() string {
	switch l {
	case LangSQL:
		return "sql"
	case LangXPath:
		return "xpath"
	case LangWebL:
		return "webl"
	case LangRegex:
		return "regex"
	case LangSelector:
		return "selector"
	default:
		return fmt.Sprintf("Language(%d)", int(l))
	}
}

// ParseLanguage resolves a language name.
func ParseLanguage(s string) (Language, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "sql":
		return LangSQL, nil
	case "xpath":
		return LangXPath, nil
	case "webl":
		return LangWebL, nil
	case "regex", "regexp":
		return LangRegex, nil
	case "selector", "css":
		return LangSelector, nil
	default:
		return 0, fmt.Errorf("mapping: unknown rule language %q", s)
	}
}

// languagesFor returns the rule languages a source kind accepts; the first
// is the default when an entry leaves Language unset.
func languagesFor(kind datasource.Kind) ([]Language, error) {
	switch kind {
	case datasource.KindDatabase:
		return []Language{LangSQL}, nil
	case datasource.KindXML:
		return []Language{LangXPath}, nil
	case datasource.KindWeb:
		return []Language{LangWebL, LangSelector}, nil
	case datasource.KindText:
		return []Language{LangRegex}, nil
	default:
		return nil, fmt.Errorf("mapping: no rule language for source kind %d", int(kind))
	}
}

// Scenario distinguishes the two data extraction scenarios of §2.3: a
// source may hold one data record (a page describing a watch) or n data
// records (a database of watches).
type Scenario int

// Scenarios.
const (
	// SingleRecord sources yield at most one value per attribute.
	SingleRecord Scenario = iota + 1
	// MultiRecord sources yield a value per record; values of different
	// attributes from the same source correlate by position.
	MultiRecord
)

func (s Scenario) String() string {
	switch s {
	case SingleRecord:
		return "single-record"
	case MultiRecord:
		return "multi-record"
	default:
		return fmt.Sprintf("Scenario(%d)", int(s))
	}
}

// Rule is an extraction rule: a code fragment in the language of the
// source's extractor.
type Rule struct {
	// Language of the rule code.
	Language Language
	// Code is the rule text: a SQL SELECT, an XPath expression, a WebL
	// program, or a regular expression.
	Code string
	// Column names the result column carrying the attribute value for SQL
	// rules; empty selects the first projected column. For WebL rules it
	// names the program variable to read; empty falls back to the attribute
	// name and then "result".
	Column string
	// Transform is an optional WebL expression applied to every extracted
	// value before it enters the instance generator; the raw value is bound
	// to the variable v. This is where per-source unit and vocabulary
	// normalization lives (paper §1: sources "use different meanings,
	// nomenclatures, vocabulary or units for concepts") — e.g.
	// `ToString(ToNumber(v) / 100)` turns cents into the ontology's euros.
	Transform string
	// Fallback, when set, is the original rule code to re-run when Code
	// fails at the source. The query planner (internal/planner) sets it on
	// pushed-down SQL rewrites: if the rewritten WHERE cannot evaluate on
	// the partner's schema (e.g. LIKE against a non-text column), the
	// extractor degrades to the unpushed rule and the instance-layer
	// filter does the work instead. Never set on operator-registered
	// entries.
	Fallback string
}

// TransformProgram compiles the rule's transform expression into a WebL
// program that reads v and leaves the transformed value in "result".
func (r Rule) TransformProgram() (*webl.Program, error) {
	if strings.TrimSpace(r.Transform) == "" {
		return nil, nil
	}
	return webl.Compile("return (" + r.Transform + ")")
}

// Entry is one attribute mapping: the (attribute ID, rule, source ID)
// triple of §2.3.1 step 3.
type Entry struct {
	// AttributeID is the ontology attribute's dotted unique ID.
	AttributeID string
	// SourceID names a definition in the data source registry.
	SourceID string
	// Rule is the extraction rule run against the source.
	Rule Rule
	// Scenario declares the record multiplicity of this source.
	Scenario Scenario
}

// Repository is the attribute repository: it stores validated mapping
// entries and serves extraction schemas. Safe for concurrent use.
type Repository struct {
	ont     *ontology.Ontology
	sources *datasource.Registry

	mu      sync.RWMutex
	entries map[string][]Entry // lower-cased attribute ID → entries
	keys    map[string]string  // lower-cased class name → key attribute ID
}

// NewRepository creates an attribute repository bound to an ontology and a
// source registry.
func NewRepository(ont *ontology.Ontology, sources *datasource.Registry) *Repository {
	return &Repository{
		ont:     ont,
		sources: sources,
		entries: make(map[string][]Entry),
		keys:    make(map[string]string),
	}
}

// Ontology returns the bound ontology.
func (r *Repository) Ontology() *ontology.Ontology { return r.ont }

// Sources returns the bound source registry.
func (r *Repository) Sources() *datasource.Registry { return r.sources }

// Register validates and stores a mapping entry. An attribute may map to
// several sources; each (attribute, source) pair is registered once.
func (r *Repository) Register(e Entry) error {
	attr, ok := r.ont.Attribute(e.AttributeID)
	if !ok {
		return fmt.Errorf("mapping: attribute %q is not defined in ontology %q", e.AttributeID, r.ont.Name)
	}
	def, err := r.sources.Lookup(e.SourceID)
	if err != nil {
		return err
	}
	allowed, err := languagesFor(def.Kind)
	if err != nil {
		return err
	}
	if e.Rule.Language == 0 {
		e.Rule.Language = allowed[0]
	}
	ok = false
	for _, lang := range allowed {
		if e.Rule.Language == lang {
			ok = true
			break
		}
	}
	if !ok {
		names := make([]string, len(allowed))
		for i, lang := range allowed {
			names[i] = lang.String()
		}
		return fmt.Errorf("mapping: attribute %q: %s source %q accepts %s rules, got %s",
			e.AttributeID, def.Kind, e.SourceID, strings.Join(names, "/"), e.Rule.Language)
	}
	if err := compileRule(e.Rule); err != nil {
		return fmt.Errorf("mapping: attribute %q: %w", e.AttributeID, err)
	}
	if _, err := e.Rule.TransformProgram(); err != nil {
		return fmt.Errorf("mapping: attribute %q: transform: %w", e.AttributeID, err)
	}
	if e.Scenario == 0 {
		e.Scenario = MultiRecord
	}

	key := strings.ToLower(attr.ID())
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, existing := range r.entries[key] {
		if existing.SourceID == e.SourceID {
			return fmt.Errorf("mapping: attribute %q already mapped to source %q", e.AttributeID, e.SourceID)
		}
	}
	e.AttributeID = attr.ID() // canonical casing
	r.entries[key] = append(r.entries[key], e)
	return nil
}

// MustRegister is Register but panics on error; for static fixtures.
func (r *Repository) MustRegister(e Entry) {
	if err := r.Register(e); err != nil {
		panic(err)
	}
}

// compileRule checks the rule parses in its language, so mapping mistakes
// surface at registration time, not at query time.
func compileRule(rule Rule) error {
	switch rule.Language {
	case LangSQL:
		stmt, err := sqllang.Parse(rule.Code)
		if err != nil {
			return err
		}
		if _, ok := stmt.(*sqllang.Select); !ok {
			return fmt.Errorf("sql extraction rule must be a SELECT statement")
		}
		return nil
	case LangXPath:
		_, err := xmlpath.Compile(rule.Code)
		return err
	case LangWebL:
		_, err := webl.Compile(rule.Code)
		return err
	case LangRegex:
		_, err := regexp.Compile(rule.Code)
		return err
	case LangSelector:
		_, err := selector.Compile(rule.Code)
		return err
	default:
		return fmt.Errorf("unknown rule language %d", int(rule.Language))
	}
}

// Entries returns the mapping entries for one attribute ID, in source order.
func (r *Repository) Entries(attributeID string) []Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	got := r.entries[strings.ToLower(attributeID)]
	out := make([]Entry, len(got))
	copy(out, got)
	sort.Slice(out, func(i, j int) bool { return out[i].SourceID < out[j].SourceID })
	return out
}

// AllEntries returns every mapping entry ordered by attribute ID then
// source ID.
func (r *Repository) AllEntries() []Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Entry
	for _, es := range r.entries {
		out = append(out, es...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].AttributeID != out[j].AttributeID {
			return out[i].AttributeID < out[j].AttributeID
		}
		return out[i].SourceID < out[j].SourceID
	})
	return out
}

// MappedAttributeIDs returns the IDs of all attributes with at least one
// mapping, sorted.
func (r *Repository) MappedAttributeIDs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.entries))
	for _, es := range r.entries {
		if len(es) > 0 {
			out = append(out, es[0].AttributeID)
		}
	}
	sort.Strings(out)
	return out
}

// SetClassKey declares the attribute whose values identify records of a
// class across sources; instances sharing a key value merge during instance
// generation.
func (r *Repository) SetClassKey(class, attributeID string) error {
	c, ok := r.ont.Class(class)
	if !ok {
		return fmt.Errorf("mapping: class %q is not defined", class)
	}
	attr, ok := r.ont.Attribute(attributeID)
	if !ok {
		return fmt.Errorf("mapping: key attribute %q is not defined", attributeID)
	}
	if !c.IsA(attr.Class) && !attr.Class.IsA(c) {
		return fmt.Errorf("mapping: key attribute %q does not belong to class %q or its hierarchy", attributeID, class)
	}
	r.mu.Lock()
	r.keys[strings.ToLower(c.Name)] = attr.ID()
	r.mu.Unlock()
	return nil
}

// ClassKey returns the key attribute ID declared for a class, or "".
func (r *Repository) ClassKey(class string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.keys[strings.ToLower(class)]
}

// ClassKeys returns a copy of every declared class key, keyed by class name.
func (r *Repository) ClassKeys() map[string]string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]string, len(r.keys))
	for class, attr := range r.keys {
		out[class] = attr
	}
	return out
}

// ImpactReport lists the mapping entries affected by an ontology change.
type ImpactReport struct {
	// Broken entries reference attributes the new ontology no longer
	// defines (removed or moved — moved classes change attribute IDs).
	Broken []Entry
	// Retyped entries reference attributes whose datatype changed; their
	// rules still run but extracted values may no longer convert.
	Retyped []Entry
	// Unaffected counts surviving entries.
	Unaffected int
}

// ImpactOf reports which registered mappings an ontology evolution breaks.
// It does not modify the repository: migration is the operator's manual
// step, exactly as initial mapping is in the paper.
func (r *Repository) ImpactOf(next *ontology.Ontology) *ImpactReport {
	rep := &ImpactReport{}
	for _, e := range r.AllEntries() {
		na, ok := next.Attribute(e.AttributeID)
		if !ok {
			rep.Broken = append(rep.Broken, e)
			continue
		}
		oa, _ := r.ont.Attribute(e.AttributeID)
		if oa != nil && oa.Datatype != na.Datatype {
			rep.Retyped = append(rep.Retyped, e)
			continue
		}
		rep.Unaffected++
	}
	return rep
}

// SourcePlan is the per-source slice of an extraction schema: one data
// source and the mapping entries to evaluate against it.
type SourcePlan struct {
	Source  datasource.Definition
	Entries []Entry
	// Filters are record-scoped pushdown filters the query planner
	// (internal/planner) attached for one specific query. Repository
	// schemas never carry them; they appear only on the planner's
	// rewritten copies.
	Filters []RecordFilter
	// SemiJoins lists the cross-source semi-join narrowing opportunities
	// the query planner found for this plan (planner v3): record-scope
	// groups whose records can reach the answer only by class-key merge
	// with instances from other sources. The extractor runs such plans in
	// a second wave, narrowed by the key values the first wave observed.
	// Like Filters, they appear only on planner-rewritten copies.
	SemiJoins []SemiJoin
}

// SemiJoin describes one semi-join-narrowable record-scope group: the
// group misses an attribute the query constrains (so its own instances
// can never satisfy the WHERE clause), and the only route its records
// have into the answer is a class-key merge that donates values to
// instances keyed by KeyAttribute. Records whose key value no other
// source produced can therefore be dropped — or never fetched — without
// changing the answer; the instance layer re-applies every condition
// regardless (sound, not load-bearing).
type SemiJoin struct {
	// Entries indexes the group's members in the owning SourcePlan.Entries.
	Entries []int
	// KeyAttribute is the declared class-key attribute the group's
	// instances merge on.
	KeyAttribute string
	// KeyEntry is the group member (an index into SourcePlan.Entries)
	// whose rule extracts KeyAttribute.
	KeyEntry int
	// SQL reports that every member rule is a plain single-scan SELECT
	// over one shared row set, so the narrowing can be pushed natively as
	// a `KeyColumn IN (...)` predicate; otherwise the extractor filters
	// fetched records positionally by key membership instead.
	SQL bool
	// KeyColumn is the key member's projected column (SQL groups only).
	KeyColumn string
	// EligibleConds indexes the query plan's conditions the group
	// provably cannot satisfy (no member maps the attribute, and every
	// earlier condition is error-free). Narrowing multiple groups in one
	// run is sound only when they share such a condition — otherwise two
	// narrowed groups could merge with each other into an instance that
	// satisfies the query — so the extractor intersects these.
	EligibleConds []int
}

// Narrowable reports whether sp carries at least one semi-join
// opportunity (the extractor's wave split keys on it).
func (sp SourcePlan) Narrowable() bool { return len(sp.SemiJoins) > 0 }

// RecordFilter asks the extractor to drop, before fragments enter the
// result set, the record positions of one record-scope group that
// provably fail the query's WHERE conditions. Entries indexes into the
// owning SourcePlan.Entries; all indexed entries share one source record
// scope (same table row / same XML record node), so position i of each
// entry's values describes the same record — exactly the tuple the
// instance generator would assemble. Records whose evaluation errors are
// kept, so the instance layer reproduces the error verbatim.
type RecordFilter struct {
	Entries    []int
	Conditions []s2sql.PlannedCondition
	// KeyIn, when non-nil, additionally drops every record position whose
	// KeyEntry value is absent from the set — the runtime half of a
	// semi-join narrowing for groups whose rules cannot be rewritten
	// natively. Key membership is an exact string match on the extracted
	// value (the same comparison the instance layer's class-key merge
	// performs), so it never errors; positions are dropped all-or-nothing
	// across the group like condition filtering. A position with no key
	// value — the KeyEntry rule failed or its fragment is short — is
	// dropped too: such records merge nowhere, and their standalone
	// instances still miss the group's unsatisfied condition.
	KeyEntry int
	KeyIn    map[string]bool
}

// Schema assembles the extraction schema (paper §2.4.1 "Obtain Extraction
// Schema" and §2.4.2 "Obtain Data Source Definition") for a set of
// attribute IDs: every mapping entry of every requested attribute, grouped
// by data source, with each source's connection definition attached.
// Attributes without any mapping are reported in missing rather than
// failing the whole schema; the caller decides whether that is an error.
// Every call builds the schema afresh from the live entry tables: the
// middleware keeps the one cached copy, with the query's plan.
func (r *Repository) Schema(attributeIDs []string) (plans []SourcePlan, missing []string, err error) {
	r.mu.RLock()
	defer r.mu.RUnlock()

	bySource := make(map[string][]Entry)
	seen := make(map[string]bool)
	for _, id := range attributeIDs {
		key := strings.ToLower(id)
		if seen[key] {
			continue
		}
		seen[key] = true
		entries := r.entries[key]
		if len(entries) == 0 {
			missing = append(missing, id)
			continue
		}
		for _, e := range entries {
			bySource[e.SourceID] = append(bySource[e.SourceID], e)
		}
	}

	ids := make([]string, 0, len(bySource))
	for id := range bySource {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		def, err := r.sources.Lookup(id)
		if err != nil {
			return nil, nil, err
		}
		entries := bySource[id]
		sort.Slice(entries, func(i, j int) bool { return entries[i].AttributeID < entries[j].AttributeID })
		plans = append(plans, SourcePlan{Source: def, Entries: entries})
	}
	sort.Strings(missing)
	return plans, missing, nil
}
