// Quickstart reproduces the paper's running example end to end:
//
//  1. The Figure-2 ontology (thing > product > watch, provider).
//  2. The two data sources of §2.3.1: the watch web page "wpage_81" and the
//     relational database "DB_ID_45".
//  3. The two mapping entries printed in the paper:
//     thing.product.brand      = watch.webl, wpage_81
//     thing.product.watch.case = SELECT ..., DB_ID_45
//  4. The §2.5 query: SELECT product WHERE brand='Seiko' AND
//     case='stainless-steel'.
//  5. OWL instances on stdout (§2.6).
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/datasource"
	"repro/internal/extract"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/ontology"
	"repro/internal/reldb"
)

// watchWebL is the paper's extraction rule (§2.3.1 step 2), verbatim except
// for the URL.
const watchWebL = `
var P = GetURL("http://www.eshop.com/products/watches.html");
var pText = Text(P);
var regexpr = "<p><b>" + ` + "`[0-9a-zA-Z']+`" + `;
var St = Str_Search(pText, regexpr);
var spliter = Str_Split(St[0][0],"<>");
var brand = Select(spliter[2],0,6);
`

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// The data sources: a web page holding one record (the single-record
	// scenario) and a database of watches (the n-record scenario).
	catalog := datasource.NewCatalog()
	catalog.AddPage("http://www.eshop.com/products/watches.html",
		`<html><body><p><b>Seiko Men's Automatic Dive Watch</b></p></body></html>`)

	db := reldb.New()
	db.MustExec("CREATE TABLE atable (id INTEGER PRIMARY KEY, brand TEXT, watch_case TEXT, price REAL)")
	db.MustExec(`INSERT INTO atable (id, brand, watch_case, price) VALUES
		(1, 'Seiko', 'stainless-steel', 129.99),
		(2, 'Seiko', 'gold', 299.50),
		(3, 'Casio', 'resin', 15.00)`)
	catalog.AddDB("watchdb", db)

	// The middleware, bound to the Figure-2 ontology.
	mw, err := core.NewWithCatalog(ontology.Paper(), catalog, extract.Options{})
	if err != nil {
		return err
	}

	// Register data sources (§2.3.2): connection info lives in one place.
	for _, def := range []datasource.Definition{
		{ID: "wpage_81", Kind: datasource.KindWeb, URL: "http://www.eshop.com/products/watches.html"},
		{ID: "DB_ID_45", Kind: datasource.KindDatabase, DSN: "watchdb",
			Props: map[string]string{"driver": "reldb", "login": "integration"}},
	} {
		if err := mw.RegisterSource(def); err != nil {
			return err
		}
	}

	// Register the paper's attribute mappings (§2.3.1 step 3).
	entries := []mapping.Entry{
		// thing.product.brand = watch.webl, wpage_81
		{
			AttributeID: "thing.product.brand",
			SourceID:    "wpage_81",
			Rule:        mapping.Rule{Language: mapping.LangWebL, Code: watchWebL},
			Scenario:    mapping.SingleRecord,
		},
		// thing.product.watch.case = SELECT ..., DB_ID_45
		{
			AttributeID: "thing.product.watch.case",
			SourceID:    "DB_ID_45",
			Rule:        mapping.Rule{Language: mapping.LangSQL, Code: "SELECT watch_case FROM atable ORDER BY id"},
		},
		{
			AttributeID: "thing.product.price",
			SourceID:    "DB_ID_45",
			Rule:        mapping.Rule{Language: mapping.LangSQL, Code: "SELECT price FROM atable ORDER BY id"},
		},
		{
			AttributeID: "thing.product.brand",
			SourceID:    "DB_ID_45",
			Rule:        mapping.Rule{Language: mapping.LangSQL, Code: "SELECT brand FROM atable ORDER BY id"},
		},
	}
	for _, e := range entries {
		if err := mw.RegisterMapping(e); err != nil {
			return err
		}
	}

	// The paper's query (§2.5) — note: no FROM, no formats, no locations.
	const query = "SELECT product WHERE brand='Seiko' AND case='stainless-steel'"
	fmt.Printf("S2SQL> %s\n\n", query)

	res, err := mw.Query(context.Background(), query)
	if err != nil {
		return err
	}
	fmt.Printf("matched %d instance(s); %d related; %d extraction error(s)\n\n",
		len(res.Matched), len(res.Related), len(res.Errors))

	// Primary output: OWL instances (§2.6).
	fmt.Println("--- OWL (RDF/XML) ---")
	if err := mw.Generator().Serialize(os.Stdout, res, instance.FormatOWL); err != nil {
		return err
	}
	fmt.Println()
	fmt.Println("--- plain text view ---")
	if err := mw.Generator().Serialize(os.Stdout, res, instance.FormatText); err != nil {
		return err
	}
	fmt.Println()
	return nil
}
