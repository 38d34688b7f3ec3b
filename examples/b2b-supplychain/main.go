// B2B supply chain example: three partner organizations publish the same
// product domain through entirely different systems — a relational ERP
// database, an XML catalog feed, and a plain-text wholesale price list —
// and a fourth joins at runtime. One S2SQL query integrates them all, the
// heterogeneity the paper's introduction motivates.
//
// Run with: go run ./examples/b2b-supplychain
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

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "b2b-supplychain:", err)
		os.Exit(1)
	}
}

func run() error {
	catalog := datasource.NewCatalog()
	mw, err := core.NewWithCatalog(ontology.Paper(), catalog, extract.Options{})
	if err != nil {
		return err
	}

	if err := organizationAlpha(mw, catalog); err != nil {
		return err
	}
	if err := organizationBeta(mw, catalog); err != nil {
		return err
	}
	if err := organizationGamma(mw, catalog); err != nil {
		return err
	}

	ctx := context.Background()
	queries := []string{
		"SELECT product WHERE case = 'stainless-steel'",
		"SELECT product WHERE price < 100",
		"SELECT provider",
	}
	for _, q := range queries {
		res, err := mw.Query(ctx, q)
		if err != nil {
			return err
		}
		fmt.Printf("S2SQL> %s\n  -> %d matched across %d organizations\n", q, len(res.Matched), 3)
		for _, in := range res.Matched {
			fmt.Printf("     %-12s %-22s %-18s from %s\n", in.Value("thing.product.brand"),
				in.Value("thing.product.model"), in.Value("thing.product.watch.case"), in.Sources[0])
		}
	}

	// A fourth organization joins: registration only, no code changes.
	fmt.Println("\norganization delta joins the marketplace (mappings only) ...")
	if err := organizationDelta(mw, catalog); err != nil {
		return err
	}
	res, err := mw.Query(ctx, "SELECT product WHERE case = 'stainless-steel'")
	if err != nil {
		return err
	}
	fmt.Printf("S2SQL> SELECT product WHERE case = 'stainless-steel'\n  -> now %d matched across 4 organizations\n\n", len(res.Matched))

	fmt.Println("--- integrated result as Turtle ---")
	if err := mw.Generator().Serialize(os.Stdout, res, instance.FormatTurtle); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

// organizationAlpha runs an ERP on a relational database.
func organizationAlpha(mw *core.Middleware, catalog *datasource.Catalog) error {
	db := reldb.New()
	db.MustExec("CREATE TABLE erp_items (sku INTEGER PRIMARY KEY, make TEXT, model_no TEXT, casing TEXT, unit_price REAL)")
	db.MustExec(`INSERT INTO erp_items (sku, make, model_no, casing, unit_price) VALUES
		(100, 'Seiko', 'SKX007', 'stainless-steel', 189.00),
		(101, 'Orient', 'Bambino', 'stainless-steel', 139.00),
		(102, 'Casio', 'F91W', 'resin', 14.50)`)
	catalog.AddDB("alpha-erp", db)
	if err := mw.RegisterSource(datasource.Definition{ID: "alpha", Kind: datasource.KindDatabase, DSN: "alpha-erp"}); err != nil {
		return err
	}
	// Note the schematic heterogeneity: make/model_no/casing vs the
	// ontology's brand/model/case — resolved entirely in the mapping.
	rules := map[string]string{
		"thing.product.brand":      "SELECT make FROM erp_items ORDER BY sku",
		"thing.product.model":      "SELECT model_no FROM erp_items ORDER BY sku",
		"thing.product.watch.case": "SELECT casing FROM erp_items ORDER BY sku",
		"thing.product.price":      "SELECT unit_price FROM erp_items ORDER BY sku",
	}
	for attr, sql := range rules {
		if err := mw.RegisterMapping(mapping.Entry{
			AttributeID: attr, SourceID: "alpha",
			Rule: mapping.Rule{Language: mapping.LangSQL, Code: sql},
		}); err != nil {
			return err
		}
	}
	db.MustExec("CREATE TABLE org (name TEXT)")
	db.MustExec("INSERT INTO org (name) VALUES ('AlphaWatches')")
	return mw.RegisterMapping(mapping.Entry{
		AttributeID: "thing.provider.name", SourceID: "alpha",
		Rule:     mapping.Rule{Language: mapping.LangSQL, Code: "SELECT name FROM org"},
		Scenario: mapping.SingleRecord,
	})
}

// organizationBeta publishes an XML catalog feed.
func organizationBeta(mw *core.Middleware, catalog *datasource.Catalog) error {
	catalog.XML.MustAdd("beta-feed.xml", `<?xml version="1.0"?>
<feed vendor="BetaTrading">
  <item><marke>Seiko</marke><modell>Presage</modell><gehaeuse>stainless-steel</gehaeuse><preis>420.00</preis></item>
  <item><marke>Swatch</marke><modell>Sistem51</modell><gehaeuse>plastic</gehaeuse><preis>150.00</preis></item>
  <vendorinfo><n>BetaTrading</n></vendorinfo>
</feed>`)
	if err := mw.RegisterSource(datasource.Definition{ID: "beta", Kind: datasource.KindXML, Path: "beta-feed.xml"}); err != nil {
		return err
	}
	// Semantic heterogeneity: German element names map onto the shared
	// ontology's concepts.
	rules := map[string]string{
		"thing.product.brand":      "/feed/item/marke",
		"thing.product.model":      "/feed/item/modell",
		"thing.product.watch.case": "/feed/item/gehaeuse",
		"thing.product.price":      "/feed/item/preis",
	}
	for attr, expr := range rules {
		if err := mw.RegisterMapping(mapping.Entry{
			AttributeID: attr, SourceID: "beta",
			Rule: mapping.Rule{Language: mapping.LangXPath, Code: expr},
		}); err != nil {
			return err
		}
	}
	return mw.RegisterMapping(mapping.Entry{
		AttributeID: "thing.provider.name", SourceID: "beta",
		Rule:     mapping.Rule{Language: mapping.LangXPath, Code: "/feed/vendorinfo/n"},
		Scenario: mapping.SingleRecord,
	})
}

// organizationGamma faxes around plain-text price lists.
func organizationGamma(mw *core.Middleware, catalog *datasource.Catalog) error {
	catalog.Text.MustAdd("gamma-prices.txt", `GAMMA WHOLESALE — CONFIDENTIAL
supplier: GammaImports
line W1: brand Citizen | model NY0040 | case stainless-steel | eur 165.00
line W2: brand Casio | model A158 | case chrome | eur 22.90
`)
	if err := mw.RegisterSource(datasource.Definition{ID: "gamma", Kind: datasource.KindText, Path: "gamma-prices.txt"}); err != nil {
		return err
	}
	rules := map[string]string{
		"thing.product.brand":      `brand ([A-Za-z]+) \|`,
		"thing.product.model":      `model ([A-Za-z0-9]+) \|`,
		"thing.product.watch.case": `case ([a-z-]+) \|`,
		"thing.product.price":      `eur ([0-9.]+)`,
	}
	for attr, expr := range rules {
		if err := mw.RegisterMapping(mapping.Entry{
			AttributeID: attr, SourceID: "gamma",
			Rule: mapping.Rule{Language: mapping.LangRegex, Code: expr},
		}); err != nil {
			return err
		}
	}
	return mw.RegisterMapping(mapping.Entry{
		AttributeID: "thing.provider.name", SourceID: "gamma",
		Rule:     mapping.Rule{Language: mapping.LangRegex, Code: `supplier: ([A-Za-z]+)`},
		Scenario: mapping.SingleRecord,
	})
}

// organizationDelta joins late with a web shop.
func organizationDelta(mw *core.Middleware, catalog *datasource.Catalog) error {
	const url = "http://delta.example/shop.html"
	catalog.AddPage(url, `<html><head><title>DeltaTime</title></head><body>
<div class="p"><b>Seiko</b> <i>Turtle</i> <em>stainless-steel</em> <u>310.00</u></div>
<div class="p"><b>Timex</b> <i>Weekender</i> <em>brass</em> <u>45.00</u></div>
</body></html>`)
	if err := mw.RegisterSource(datasource.Definition{ID: "delta", Kind: datasource.KindWeb, URL: url}); err != nil {
		return err
	}
	rule := func(varName, pattern string) string {
		return fmt.Sprintf("var P = GetURL(%q)\nvar ms = Str_Search(Text(P), %q)\nvar %s = Column(ms, 1)\n", url, pattern, varName)
	}
	entries := []mapping.Entry{
		{AttributeID: "thing.product.brand", SourceID: "delta",
			Rule: mapping.Rule{Language: mapping.LangWebL, Code: rule("brand", `<b>([^<]+)</b>`), Column: "brand"}},
		{AttributeID: "thing.product.model", SourceID: "delta",
			Rule: mapping.Rule{Language: mapping.LangWebL, Code: rule("model", `<i>([^<]+)</i>`), Column: "model"}},
		{AttributeID: "thing.product.watch.case", SourceID: "delta",
			Rule: mapping.Rule{Language: mapping.LangWebL, Code: rule("c", `<em>([^<]+)</em>`), Column: "c"}},
		{AttributeID: "thing.product.price", SourceID: "delta",
			Rule: mapping.Rule{Language: mapping.LangWebL, Code: rule("price", `<u>([^<]+)</u>`), Column: "price"}},
	}
	for _, e := range entries {
		if err := mw.RegisterMapping(e); err != nil {
			return err
		}
	}
	return nil
}
