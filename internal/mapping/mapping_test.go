package mapping

import (
	"strings"
	"testing"

	"repro/internal/datasource"
	"repro/internal/ontology"
)

func fixtures(t *testing.T) (*ontology.Ontology, *datasource.Registry) {
	t.Helper()
	ont := ontology.Paper()
	reg := datasource.NewRegistry()
	defs := []datasource.Definition{
		{ID: "wpage_81", Kind: datasource.KindWeb, URL: "http://www.eshop.com/products/watches.html"},
		{ID: "DB_ID_45", Kind: datasource.KindDatabase, DSN: "inventory"},
		{ID: "xml_7", Kind: datasource.KindXML, Path: "catalog.xml"},
		{ID: "txt_2", Kind: datasource.KindText, Path: "prices.txt"},
	}
	for _, d := range defs {
		if err := reg.Register(d); err != nil {
			t.Fatal(err)
		}
	}
	return ont, reg
}

const weblRule = `
var P = GetURL("http://www.eshop.com/products/watches.html")
var St = Str_Search(Text(P), "<p><b>" + "[0-9a-zA-Z']+")
var spliter = Str_Split(St[0][0], "<>")
var brand = Select(spliter[2], 0, 6)
`

// TestPaperMappingEntries registers the exact mappings from §2.3.1 step 3.
func TestPaperMappingEntries(t *testing.T) {
	ont, reg := fixtures(t)
	repo := NewRepository(ont, reg)

	// thing.product.brand = watch.webl, wpage_81
	if err := repo.Register(Entry{
		AttributeID: "thing.product.brand",
		SourceID:    "wpage_81",
		Rule:        Rule{Language: LangWebL, Code: weblRule},
		Scenario:    SingleRecord,
	}); err != nil {
		t.Fatalf("webl mapping: %v", err)
	}

	// thing.product.watch.case = SELECT ..., DB_ID_45
	if err := repo.Register(Entry{
		AttributeID: "thing.product.watch.case",
		SourceID:    "DB_ID_45",
		Rule:        Rule{Language: LangSQL, Code: "SELECT watch_case FROM watches WHERE brand = 'Seiko'"},
	}); err != nil {
		t.Fatalf("sql mapping: %v", err)
	}

	entries := repo.Entries("thing.product.brand")
	if len(entries) != 1 || entries[0].SourceID != "wpage_81" {
		t.Fatalf("entries = %+v", entries)
	}
	if entries[0].Scenario != SingleRecord {
		t.Errorf("scenario = %v", entries[0].Scenario)
	}
	// Default scenario is multi-record.
	if got := repo.Entries("thing.product.watch.case"); got[0].Scenario != MultiRecord {
		t.Errorf("default scenario = %v", got[0].Scenario)
	}
}

func TestRegisterDefaultsLanguageFromSourceKind(t *testing.T) {
	ont, reg := fixtures(t)
	repo := NewRepository(ont, reg)
	if err := repo.Register(Entry{
		AttributeID: "thing.product.model",
		SourceID:    "xml_7",
		Rule:        Rule{Code: "/catalog/watch/model"},
	}); err != nil {
		t.Fatal(err)
	}
	if got := repo.Entries("thing.product.model")[0].Rule.Language; got != LangXPath {
		t.Errorf("defaulted language = %v", got)
	}
}

func TestRegisterValidation(t *testing.T) {
	ont, reg := fixtures(t)
	repo := NewRepository(ont, reg)
	cases := []struct {
		name  string
		entry Entry
	}{
		{"unknown attribute", Entry{AttributeID: "thing.product.serial", SourceID: "xml_7", Rule: Rule{Code: "/a"}}},
		{"unknown source", Entry{AttributeID: "thing.product.brand", SourceID: "nosuch", Rule: Rule{Code: "/a"}}},
		{"language mismatch", Entry{AttributeID: "thing.product.brand", SourceID: "DB_ID_45", Rule: Rule{Language: LangXPath, Code: "/a"}}},
		{"bad sql", Entry{AttributeID: "thing.product.brand", SourceID: "DB_ID_45", Rule: Rule{Language: LangSQL, Code: "SELEK *"}}},
		{"sql non-select", Entry{AttributeID: "thing.product.brand", SourceID: "DB_ID_45", Rule: Rule{Language: LangSQL, Code: "DELETE FROM t"}}},
		{"bad xpath", Entry{AttributeID: "thing.product.brand", SourceID: "xml_7", Rule: Rule{Language: LangXPath, Code: "//["}}},
		{"bad webl", Entry{AttributeID: "thing.product.brand", SourceID: "wpage_81", Rule: Rule{Language: LangWebL, Code: "var = broken"}}},
		{"bad regex", Entry{AttributeID: "thing.product.brand", SourceID: "txt_2", Rule: Rule{Language: LangRegex, Code: "["}}},
	}
	for _, c := range cases {
		if err := repo.Register(c.entry); err == nil {
			t.Errorf("%s: registered", c.name)
		}
	}
}

func TestRegisterDuplicatePair(t *testing.T) {
	ont, reg := fixtures(t)
	repo := NewRepository(ont, reg)
	e := Entry{AttributeID: "thing.product.brand", SourceID: "xml_7", Rule: Rule{Code: "//brand"}}
	if err := repo.Register(e); err != nil {
		t.Fatal(err)
	}
	if err := repo.Register(e); err == nil {
		t.Error("duplicate (attribute, source) accepted")
	}
	// A second source for the same attribute is allowed (multi-source
	// integration is the point of the middleware).
	e2 := Entry{AttributeID: "thing.product.brand", SourceID: "txt_2", Rule: Rule{Code: `brand=([A-Za-z]+)`}}
	if err := repo.Register(e2); err != nil {
		t.Errorf("second source rejected: %v", err)
	}
	if got := len(repo.Entries("thing.product.brand")); got != 2 {
		t.Errorf("entries = %d", got)
	}
}

func TestSchemaGroupsBySource(t *testing.T) {
	ont, reg := fixtures(t)
	repo := NewRepository(ont, reg)
	repo.MustRegister(Entry{AttributeID: "thing.product.brand", SourceID: "xml_7", Rule: Rule{Code: "//brand"}})
	repo.MustRegister(Entry{AttributeID: "thing.product.model", SourceID: "xml_7", Rule: Rule{Code: "//model"}})
	repo.MustRegister(Entry{AttributeID: "thing.product.watch.case", SourceID: "DB_ID_45", Rule: Rule{Code: "SELECT watch_case FROM watches"}})

	plans, missing, err := repo.Schema([]string{
		"thing.product.brand", "thing.product.model", "thing.product.watch.case", "thing.provider.name",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 1 || missing[0] != "thing.provider.name" {
		t.Errorf("missing = %v", missing)
	}
	if len(plans) != 2 {
		t.Fatalf("plans = %+v", plans)
	}
	// Plans are source-ID ordered: DB_ID_45 then xml_7.
	if plans[0].Source.ID != "DB_ID_45" || len(plans[0].Entries) != 1 {
		t.Errorf("plan 0 = %+v", plans[0])
	}
	if plans[1].Source.ID != "xml_7" || len(plans[1].Entries) != 2 {
		t.Errorf("plan 1 = %+v", plans[1])
	}
	// Connection info rides along (§2.4.2).
	if plans[1].Source.Path != "catalog.xml" {
		t.Errorf("source definition not attached: %+v", plans[1].Source)
	}
	// Duplicate attribute IDs in the request are collapsed.
	plans2, _, err := repo.Schema([]string{"thing.product.brand", "THING.PRODUCT.BRAND"})
	if err != nil || len(plans2) != 1 || len(plans2[0].Entries) != 1 {
		t.Errorf("deduped schema = %+v, %v", plans2, err)
	}
}

func TestClassKeys(t *testing.T) {
	ont, reg := fixtures(t)
	repo := NewRepository(ont, reg)
	if err := repo.SetClassKey("watch", "thing.product.model"); err != nil {
		t.Fatalf("key on inherited attribute: %v", err)
	}
	if got := repo.ClassKey("watch"); got != "thing.product.model" {
		t.Errorf("ClassKey = %q", got)
	}
	if got := repo.ClassKey("provider"); got != "" {
		t.Errorf("unset ClassKey = %q", got)
	}
	if err := repo.SetClassKey("nosuch", "thing.product.model"); err == nil {
		t.Error("unknown class accepted")
	}
	if err := repo.SetClassKey("watch", "thing.nosuch"); err == nil {
		t.Error("unknown attribute accepted")
	}
	if err := repo.SetClassKey("provider", "thing.product.brand"); err == nil {
		t.Error("key attribute outside class hierarchy accepted")
	}
}

func TestAllEntriesAndMappedIDs(t *testing.T) {
	ont, reg := fixtures(t)
	repo := NewRepository(ont, reg)
	repo.MustRegister(Entry{AttributeID: "thing.provider.name", SourceID: "xml_7", Rule: Rule{Code: "//provider/name"}})
	repo.MustRegister(Entry{AttributeID: "thing.product.brand", SourceID: "xml_7", Rule: Rule{Code: "//brand"}})
	all := repo.AllEntries()
	if len(all) != 2 || all[0].AttributeID != "thing.product.brand" {
		t.Errorf("AllEntries = %+v", all)
	}
	ids := repo.MappedAttributeIDs()
	if len(ids) != 2 || ids[1] != "thing.provider.name" {
		t.Errorf("MappedAttributeIDs = %v", ids)
	}
}

func TestImpactOfOntologyEvolution(t *testing.T) {
	ont, reg := fixtures(t)
	repo := NewRepository(ont, reg)
	repo.MustRegister(Entry{AttributeID: "thing.product.brand", SourceID: "xml_7", Rule: Rule{Code: "//brand"}})
	repo.MustRegister(Entry{AttributeID: "thing.product.watch.case", SourceID: "xml_7", Rule: Rule{Code: "//case"}})
	repo.MustRegister(Entry{AttributeID: "thing.product.price", SourceID: "xml_7", Rule: Rule{Code: "//price"}})

	// New ontology version: watch moves under thing (its attribute IDs
	// change) and price becomes an integer.
	next := ontology.MustNew(ontology.PaperBase, "watch-catalog", "thing")
	if _, err := next.AddClass("product", "thing"); err != nil {
		t.Fatal(err)
	}
	if _, err := next.AddClass("watch", "thing"); err != nil {
		t.Fatal(err)
	}
	if _, err := next.AddAttribute("product", "brand", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := next.AddAttribute("watch", "case", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := next.AddAttribute("product", "price", "http://www.w3.org/2001/XMLSchema#integer"); err != nil {
		t.Fatal(err)
	}

	rep := repo.ImpactOf(next)
	if len(rep.Broken) != 1 || rep.Broken[0].AttributeID != "thing.product.watch.case" {
		t.Errorf("broken = %+v", rep.Broken)
	}
	if len(rep.Retyped) != 1 || rep.Retyped[0].AttributeID != "thing.product.price" {
		t.Errorf("retyped = %+v", rep.Retyped)
	}
	if rep.Unaffected != 1 {
		t.Errorf("unaffected = %d", rep.Unaffected)
	}
}

func TestParseLanguage(t *testing.T) {
	for s, want := range map[string]Language{"sql": LangSQL, "XPath": LangXPath, "WEBL": LangWebL, "regexp": LangRegex} {
		got, err := ParseLanguage(s)
		if err != nil || got != want {
			t.Errorf("ParseLanguage(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseLanguage("prolog"); err == nil {
		t.Error("unknown language parsed")
	}
	for _, l := range []Language{LangSQL, LangXPath, LangWebL, LangRegex} {
		if strings.Contains(l.String(), "Language(") {
			t.Errorf("missing name for %d", int(l))
		}
	}
}

func TestScenarioString(t *testing.T) {
	if SingleRecord.String() != "single-record" || MultiRecord.String() != "multi-record" {
		t.Error("scenario names")
	}
}

// TestSchemaCacheCoherence pins what Schema promises callers that cache
// its result: a registration shows up in the very next call, and the
// `missing` list keeps the caller's casing.
func TestSchemaCacheCoherence(t *testing.T) {
	ont, reg := fixtures(t)
	repo := NewRepository(ont, reg)
	repo.MustRegister(Entry{AttributeID: "thing.product.brand", SourceID: "xml_7", Rule: Rule{Code: "//brand"}})

	attrs := []string{"thing.product.brand", "thing.provider.name"}
	plans, missing, err := repo.Schema(attrs)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 1 || plans[0].Source.ID != "xml_7" {
		t.Fatalf("plans = %+v", plans)
	}
	if len(missing) != 1 || missing[0] != "thing.provider.name" {
		t.Fatalf("missing = %v", missing)
	}

	// Registering a mapping for the missing attribute shows at once.
	repo.MustRegister(Entry{AttributeID: "thing.provider.name", SourceID: "txt_2", Rule: Rule{Code: `name=([A-Za-z]+)`}})
	plans2, missing2, err := repo.Schema(attrs)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing2) != 0 {
		t.Errorf("missing after registration = %v (stale schema)", missing2)
	}
	if len(plans2) != 2 {
		t.Errorf("plans after registration = %+v", plans2)
	}

	// The `missing` list preserves the caller's casing.
	_, missingUpper, err := repo.Schema([]string{"THING.PRODUCT.NOSUCH"})
	if err != nil {
		t.Fatal(err)
	}
	_, missingLower, err := repo.Schema([]string{"thing.product.nosuch"})
	if err != nil {
		t.Fatal(err)
	}
	if len(missingUpper) != 1 || missingUpper[0] != "THING.PRODUCT.NOSUCH" {
		t.Errorf("upper missing = %v", missingUpper)
	}
	if len(missingLower) != 1 || missingLower[0] != "thing.product.nosuch" {
		t.Errorf("lower missing = %v", missingLower)
	}
}
