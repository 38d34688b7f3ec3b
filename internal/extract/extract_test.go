package extract

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/datasource"
	"repro/internal/mapping"
	"repro/internal/ontology"
	"repro/internal/reldb"
	"repro/internal/s2sql"
)

// testWorld wires the paper's four source kinds with overlapping watch data.
type testWorld struct {
	repo    *mapping.Repository
	catalog *datasource.Catalog
}

func newWorld(t *testing.T) *testWorld {
	t.Helper()
	ont := ontology.Paper()
	reg := datasource.NewRegistry()
	catalog := datasource.NewCatalog()

	// Database source: n-record watches table.
	db := reldb.New()
	db.MustExec("CREATE TABLE watches (id INTEGER PRIMARY KEY, brand TEXT, model TEXT, watch_case TEXT, price REAL)")
	db.MustExec(`INSERT INTO watches (id, brand, model, watch_case, price) VALUES
		(1, 'Seiko', 'Dive Auto', 'stainless-steel', 129.99),
		(2, 'Casio', 'F91W', 'resin', 15.0)`)
	catalog.AddDB("inventory", db)
	must(t, reg.Register(datasource.Definition{ID: "DB_ID_45", Kind: datasource.KindDatabase, DSN: "inventory"}))

	// XML source.
	catalog.XML.MustAdd("catalog.xml", `<catalog>
		<watch><brand>Citizen</brand><model>EcoDrive</model><case>titanium</case></watch>
	</catalog>`)
	must(t, reg.Register(datasource.Definition{ID: "xml_7", Kind: datasource.KindXML, Path: "catalog.xml"}))

	// Web source: the paper's page.
	catalog.AddPage("http://www.eshop.com/products/watches.html",
		`<html><body><p><b>Seiko Men's Automatic Dive Watch</b></p></body></html>`)
	must(t, reg.Register(datasource.Definition{ID: "wpage_81", Kind: datasource.KindWeb, URL: "http://www.eshop.com/products/watches.html"}))

	// Text source.
	catalog.Text.MustAdd("providers.txt", "provider name=TimeHouse country=JP\n")
	must(t, reg.Register(datasource.Definition{ID: "txt_2", Kind: datasource.KindText, Path: "providers.txt"}))

	repo := mapping.NewRepository(ont, reg)
	return &testWorld{repo: repo, catalog: catalog}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// extractQuery is the planned-query path in one call: the query's
// schema, then extraction over it.
func extractQuery(ctx context.Context, m *Manager, plan *s2sql.Plan) (*ResultSet, error) {
	s, err := m.Schema(ctx, plan)
	if err != nil {
		return nil, err
	}
	return m.ExtractQuery(ctx, s)
}

func (w *testWorld) manager(opts Options) *Manager {
	return NewManager(w.repo, FromCatalog(w.catalog), opts)
}

const paperWebLRule = `
var P = GetURL("http://www.eshop.com/products/watches.html")
var pText = Text(P)
var regexpr = "<p><b>" + "[0-9a-zA-Z']+"
var St = Str_Search(pText, regexpr)
var spliter = Str_Split(St[0][0], "<>")
var brand = Select(spliter[2], 0, 6)
`

func TestExtractAllFourKinds(t *testing.T) {
	w := newWorld(t)
	w.repo.MustRegister(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "DB_ID_45",
		Rule: mapping.Rule{Code: "SELECT brand FROM watches ORDER BY id"},
	})
	w.repo.MustRegister(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "xml_7",
		Rule: mapping.Rule{Code: "/catalog/watch/brand"},
	})
	w.repo.MustRegister(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "wpage_81",
		Rule: mapping.Rule{Code: paperWebLRule}, Scenario: mapping.SingleRecord,
	})
	w.repo.MustRegister(mapping.Entry{
		AttributeID: "thing.provider.name", SourceID: "txt_2",
		Rule: mapping.Rule{Code: `name=([A-Za-z]+)`},
	})

	rs, err := w.manager(Options{}).Extract(context.Background(), []string{
		"thing.product.brand", "thing.provider.name",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Errors) != 0 {
		t.Fatalf("errors: %v", rs.Errors)
	}
	if len(rs.Fragments) != 4 {
		t.Fatalf("fragments = %+v", rs.Fragments)
	}
	byKey := map[string][]string{}
	for _, f := range rs.Fragments {
		byKey[f.AttributeID+"|"+f.SourceID] = f.Values
	}
	if got := byKey["thing.product.brand|DB_ID_45"]; len(got) != 2 || got[0] != "Seiko" || got[1] != "Casio" {
		t.Errorf("db brands = %v", got)
	}
	if got := byKey["thing.product.brand|xml_7"]; len(got) != 1 || got[0] != "Citizen" {
		t.Errorf("xml brands = %v", got)
	}
	if got := byKey["thing.product.brand|wpage_81"]; len(got) != 1 || strings.TrimSpace(got[0]) != "Seiko" {
		t.Errorf("web brand = %v", got)
	}
	if got := byKey["thing.provider.name|txt_2"]; len(got) != 1 || got[0] != "TimeHouse" {
		t.Errorf("text provider = %v", got)
	}
	if rs.Stats.SourcesContacted != 4 || rs.Stats.ValuesExtracted != 5 {
		t.Errorf("stats = %+v", rs.Stats)
	}
}

func TestExtractMissingAttributes(t *testing.T) {
	w := newWorld(t)
	rs, err := w.manager(Options{}).Extract(context.Background(), []string{"thing.product.price"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Missing) != 1 || rs.Missing[0] != "thing.product.price" {
		t.Errorf("missing = %v", rs.Missing)
	}
	if len(rs.Fragments) != 0 {
		t.Errorf("fragments = %+v", rs.Fragments)
	}
}

func TestExtractSQLColumnSelection(t *testing.T) {
	w := newWorld(t)
	w.repo.MustRegister(mapping.Entry{
		AttributeID: "thing.product.model", SourceID: "DB_ID_45",
		Rule: mapping.Rule{Code: "SELECT brand, model FROM watches ORDER BY id", Column: "model"},
	})
	rs, err := w.manager(Options{}).Extract(context.Background(), []string{"thing.product.model"})
	if err != nil || len(rs.Errors) > 0 {
		t.Fatalf("%v %v", err, rs.Errors)
	}
	if got := rs.Fragments[0].Values; got[0] != "Dive Auto" || got[1] != "F91W" {
		t.Errorf("models = %v", got)
	}
}

func TestExtractSQLColumnMissing(t *testing.T) {
	w := newWorld(t)
	w.repo.MustRegister(mapping.Entry{
		AttributeID: "thing.product.model", SourceID: "DB_ID_45",
		Rule: mapping.Rule{Code: "SELECT brand FROM watches", Column: "nosuch"},
	})
	rs, err := w.manager(Options{}).Extract(context.Background(), []string{"thing.product.model"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Errors) != 1 || !strings.Contains(rs.Errors[0].Error(), "nosuch") {
		t.Fatalf("errors = %v", rs.Errors)
	}
}

func TestExtractSingleRecordViolation(t *testing.T) {
	w := newWorld(t)
	w.repo.MustRegister(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "DB_ID_45",
		Rule:     mapping.Rule{Code: "SELECT brand FROM watches"},
		Scenario: mapping.SingleRecord,
	})
	rs, err := w.manager(Options{}).Extract(context.Background(), []string{"thing.product.brand"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Errors) != 1 || !strings.Contains(rs.Errors[0].Error(), "single-record") {
		t.Fatalf("errors = %v", rs.Errors)
	}
}

func TestExtractSourceFailureIsIsolated(t *testing.T) {
	w := newWorld(t)
	// Working XML mapping plus a web mapping whose page does not exist.
	w.repo.MustRegister(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "xml_7",
		Rule: mapping.Rule{Code: "/catalog/watch/brand"},
	})
	w.repo.MustRegister(mapping.Entry{
		AttributeID: "thing.product.model", SourceID: "wpage_81",
		Rule: mapping.Rule{Code: `var model = Text(GetURL("http://nope.example/x"))`},
	})
	rs, err := w.manager(Options{}).Extract(context.Background(), []string{
		"thing.product.brand", "thing.product.model",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Fragments) != 1 || rs.Fragments[0].Values[0] != "Citizen" {
		t.Errorf("fragments = %+v", rs.Fragments)
	}
	if len(rs.Errors) != 1 || rs.Errors[0].SourceID != "wpage_81" {
		t.Errorf("errors = %v", rs.Errors)
	}
}

func TestExtractRetries(t *testing.T) {
	w := newWorld(t)
	// A flaky fetcher that fails twice then succeeds.
	fails := 2
	backends := FromCatalog(w.catalog)
	inner := backends.Pages
	backends.Pages = fetcherFunc(func(ctx context.Context, url string) (string, error) {
		if fails > 0 {
			fails--
			return "", fmt.Errorf("transient network failure")
		}
		return inner(ctx, url)
	})
	w.repo.MustRegister(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "wpage_81",
		Rule: mapping.Rule{Code: paperWebLRule}, Scenario: mapping.SingleRecord,
	})
	m := NewManager(w.repo, backends, Options{Retries: 3})
	rs, err := m.Extract(context.Background(), []string{"thing.product.brand"})
	if err != nil || len(rs.Errors) > 0 {
		t.Fatalf("%v %v", err, rs.Errors)
	}
	if rs.Stats.Retries != 2 {
		t.Errorf("retries = %d, want 2", rs.Stats.Retries)
	}
}

// fetcherFunc is a page backend written inline.
type fetcherFunc = Backend[string]

func TestExtractTimeout(t *testing.T) {
	w := newWorld(t)
	w.repo.MustRegister(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "wpage_81",
		Rule: mapping.Rule{Code: paperWebLRule}, Scenario: mapping.SingleRecord,
	})
	const timeout = 20 * time.Millisecond
	backends := FromCatalog(w.catalog)
	inner := backends.Pages
	// The rule blocks in its page fetch well past the source timeout.
	backends.Pages = fetcherFunc(func(ctx context.Context, url string) (string, error) {
		time.Sleep(10 * timeout)
		return inner(ctx, url)
	})
	m := NewManager(w.repo, backends, Options{Timeout: timeout})
	done := make(chan struct{})
	var rs *ResultSet
	var err error
	go func() {
		rs, err = m.Extract(context.Background(), []string{"thing.product.brand"})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("extraction did not respect timeout")
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Errors) != 1 || !strings.Contains(rs.Errors[0].Error(), "deadline") {
		t.Fatalf("errors = %v", rs.Errors)
	}
}

func TestExtractContextCancellation(t *testing.T) {
	w := newWorld(t)
	w.repo.MustRegister(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "xml_7",
		Rule: mapping.Rule{Code: "/catalog/watch/brand"},
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rs, err := w.manager(Options{}).Extract(ctx, []string{"thing.product.brand"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Errors) == 0 {
		t.Fatal("cancelled context produced no errors")
	}
}

func TestExtractParallelismMatchesSequentialResults(t *testing.T) {
	w := newWorld(t)
	// Many XML sources.
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("gen_xml_%02d", i)
		path := fmt.Sprintf("gen%02d.xml", i)
		w.catalog.XML.MustAdd(path, fmt.Sprintf("<c><w><brand>B%02d</brand></w></c>", i))
		must(t, w.repo.Sources().Register(datasource.Definition{ID: id, Kind: datasource.KindXML, Path: path}))
		w.repo.MustRegister(mapping.Entry{
			AttributeID: "thing.product.brand", SourceID: id,
			Rule: mapping.Rule{Code: "//brand"},
		})
	}
	seq, err := w.manager(Options{Parallelism: 1}).Extract(context.Background(), []string{"thing.product.brand"})
	if err != nil {
		t.Fatal(err)
	}
	par, err := w.manager(Options{Parallelism: 16}).Extract(context.Background(), []string{"thing.product.brand"})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Fragments) != 20 || len(par.Fragments) != len(seq.Fragments) {
		t.Fatalf("fragments: seq=%d par=%d", len(seq.Fragments), len(par.Fragments))
	}
	for i := range seq.Fragments {
		if seq.Fragments[i].SourceID != par.Fragments[i].SourceID ||
			seq.Fragments[i].Values[0] != par.Fragments[i].Values[0] {
			t.Fatalf("fragment %d differs: %+v vs %+v", i, seq.Fragments[i], par.Fragments[i])
		}
	}
}

func TestExtractSelectorRule(t *testing.T) {
	w := newWorld(t)
	w.catalog.AddPage("http://shop.example/list.html", `<html><body>
<div class="item"><b class="brand">Seiko</b></div>
<div class="item"><b class="brand">Casio</b></div>
</body></html>`)
	must(t, w.repo.Sources().Register(datasource.Definition{
		ID: "sel_shop", Kind: datasource.KindWeb, URL: "http://shop.example/list.html",
	}))
	w.repo.MustRegister(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "sel_shop",
		Rule: mapping.Rule{Language: mapping.LangSelector, Code: "div.item > b.brand::text"},
	})
	rs, err := w.manager(Options{}).Extract(context.Background(), []string{"thing.product.brand"})
	if err != nil || len(rs.Errors) > 0 {
		t.Fatalf("%v %v", err, rs.Errors)
	}
	if got := rs.Fragments[0].Values; len(got) != 2 || got[0] != "Seiko" || got[1] != "Casio" {
		t.Fatalf("selector values = %v", got)
	}
}

func TestSelectorRuleRejectedOnNonWebSource(t *testing.T) {
	w := newWorld(t)
	err := w.repo.Register(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "DB_ID_45",
		Rule: mapping.Rule{Language: mapping.LangSelector, Code: "div.item"},
	})
	if err == nil {
		t.Fatal("selector rule accepted on a database source")
	}
}

func TestWebSourceAcceptsBothLanguages(t *testing.T) {
	w := newWorld(t)
	// WebL and selector rules on the same web source, different attributes.
	w.repo.MustRegister(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "wpage_81",
		Rule: mapping.Rule{Code: paperWebLRule}, Scenario: mapping.SingleRecord,
	})
	w.repo.MustRegister(mapping.Entry{
		AttributeID: "thing.product.model", SourceID: "wpage_81",
		Rule: mapping.Rule{Language: mapping.LangSelector, Code: "p > b::text"},
	})
	rs, err := w.manager(Options{}).Extract(context.Background(), []string{
		"thing.product.brand", "thing.product.model",
	})
	if err != nil || len(rs.Errors) > 0 {
		t.Fatalf("%v %v", err, rs.Errors)
	}
	if len(rs.Fragments) != 2 {
		t.Fatalf("fragments = %+v", rs.Fragments)
	}
}

func TestWeblValueToStrings(t *testing.T) {
	if got, err := weblValueToStrings("x"); err != nil || len(got) != 1 {
		t.Errorf("string: %v %v", got, err)
	}
	if got, err := weblValueToStrings(nil); err != nil || len(got) != 0 {
		t.Errorf("nil: %v %v", got, err)
	}
	if got, err := weblValueToStrings(float64(3)); err != nil || got[0] != "3" {
		t.Errorf("number: %v %v", got, err)
	}
	if got, err := weblValueToStrings(true); err != nil || got[0] != "true" {
		t.Errorf("bool: %v %v", got, err)
	}
}

func TestSourceErrorFormatting(t *testing.T) {
	e := SourceError{SourceID: "s", AttributeID: "a", Err: fmt.Errorf("boom")}
	if !strings.Contains(e.Error(), "s") || !strings.Contains(e.Error(), "a") {
		t.Errorf("Error() = %q", e.Error())
	}
	e2 := SourceError{SourceID: "s", Err: fmt.Errorf("boom")}
	if !strings.Contains(e2.Error(), "boom") {
		t.Errorf("Error() = %q", e2.Error())
	}
}

// TestColumnStringsMatchesValueString checks the one-buffer rendering of
// a result column against one Value.String per cell, NULL as "", for
// every column type, negative numbers, -0 and exponent-formatted REALs.
func TestColumnStringsMatchesValueString(t *testing.T) {
	columns := [][]reldb.Value{
		{reldb.Text("Seiko"), reldb.NullValue(), reldb.Text(""), reldb.Text("x y")},
		{reldb.Int(3), reldb.NullValue(), reldb.Int(-12), reldb.Int(math.MinInt64), reldb.NullValue()},
		{reldb.NullValue(), reldb.Real(1.5), reldb.Real(math.Copysign(0, -1)), reldb.Real(1e21), reldb.Real(1e-7), reldb.Real(-3.25)},
		{reldb.Bool(true), reldb.NullValue(), reldb.Bool(false)},
		{reldb.NullValue(), reldb.NullValue()},
		{},
	}
	for _, column := range columns {
		rows := make([][]reldb.Value, len(column))
		want := make([]string, len(column))
		for i, v := range column {
			rows[i] = []reldb.Value{reldb.Text("other"), v}
			if !v.Null {
				want[i] = v.String()
			}
		}
		if got := columnStrings(rows, 1); !reflect.DeepEqual(got, want) {
			t.Errorf("columnStrings(%v) = %q, want %q", column, got, want)
		}
	}
}
