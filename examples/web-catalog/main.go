// Web catalog example: WebL wrapper extraction against real HTTP servers.
// Two simulated web shops serve HTML product pages from net/http listeners;
// the middleware fetches them through the HTTP-backed fetcher and extracts
// attributes with WebL rules — the unstructured-source path of the paper,
// exercised over an actual network stack.
//
// Run with: go run ./examples/web-catalog
package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"

	"repro/internal/core"
	"repro/internal/datasource"
	"repro/internal/extract"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/ontology"
	"repro/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "web-catalog:", err)
		os.Exit(1)
	}
}

// serveShop starts an HTTP listener serving one HTML page and returns its
// URL.
func serveShop(path, html string) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		//lint:ignore errcheck a fixture-page write failure means the catalog client hung up
		_, _ = w.Write([]byte(html))
	})
	srv := &http.Server{Handler: mux}
	//lint:ignore errcheck Serve always returns ErrServerClosed once the example shuts the server down
	go func() { _ = srv.Serve(ln) }()
	//lint:ignore errcheck best-effort teardown of an example fixture server
	return "http://" + ln.Addr().String() + path, func() { _ = srv.Close() }, nil
}

func run() error {
	shopA, closeA, err := serveShop("/watches.html", `<html><body>
<h1>Chrono &amp; Co</h1>
<p><b>Seiko Men's Automatic Dive Watch</b></p>
<div class="spec">case: stainless-steel</div>
<div class="spec">price: 129.99</div>
</body></html>`)
	if err != nil {
		return err
	}
	defer closeA()

	shopB, closeB, err := serveShop("/catalog", `<html><body>
<table>
<tr><td class="b">Casio</td><td class="m">F91W</td><td class="c">resin</td><td class="p">15.00</td></tr>
<tr><td class="b">Citizen</td><td class="m">EcoDrive</td><td class="c">titanium</td><td class="p">210.00</td></tr>
<tr><td class="b">Seiko</td><td class="m">Presage</td><td class="c">stainless-steel</td><td class="p">420.00</td></tr>
</table>
</body></html>`)
	if err != nil {
		return err
	}
	defer closeB()

	// The middleware fetches over real HTTP.
	mw, err := core.New(core.Config{
		Ontology: ontology.Paper(),
		Backends: extract.Backends{Pages: (&transport.HTTPFetcher{}).Fetch},
	})
	if err != nil {
		return err
	}
	if err := mw.RegisterSource(datasource.Definition{ID: "shopA", Kind: datasource.KindWeb, URL: shopA}); err != nil {
		return err
	}
	if err := mw.RegisterSource(datasource.Definition{ID: "shopB", Kind: datasource.KindWeb, URL: shopB}); err != nil {
		return err
	}

	// Shop A: the paper's single-record page, with the paper's rule shape.
	singleRule := func(varName, pattern string) mapping.Rule {
		code := fmt.Sprintf(`
var P = GetURL(%q)
var St = Str_Search(Text(P), %q)
var %s = St[0][1]
`, shopA, pattern, varName)
		return mapping.Rule{Language: mapping.LangWebL, Code: code, Column: varName}
	}
	shopAEntries := []mapping.Entry{
		{AttributeID: "thing.product.brand", SourceID: "shopA",
			Rule: singleRule("brand", `<p><b>([0-9a-zA-Z']+)`), Scenario: mapping.SingleRecord},
		{AttributeID: "thing.product.watch.case", SourceID: "shopA",
			Rule: singleRule("c", `case: ([a-z-]+)`), Scenario: mapping.SingleRecord},
		{AttributeID: "thing.product.price", SourceID: "shopA",
			Rule: singleRule("price", `price: ([0-9.]+)`), Scenario: mapping.SingleRecord},
	}

	// Shop B: an n-record table page.
	multiRule := func(varName, pattern string) mapping.Rule {
		code := fmt.Sprintf(`
var P = GetURL(%q)
var %s = Column(Str_Search(Text(P), %q), 1)
`, shopB, varName, pattern)
		return mapping.Rule{Language: mapping.LangWebL, Code: code, Column: varName}
	}
	shopBEntries := []mapping.Entry{
		{AttributeID: "thing.product.brand", SourceID: "shopB", Rule: multiRule("brand", `<td class="b">([^<]+)</td>`)},
		{AttributeID: "thing.product.model", SourceID: "shopB", Rule: multiRule("model", `<td class="m">([^<]+)</td>`)},
		{AttributeID: "thing.product.watch.case", SourceID: "shopB", Rule: multiRule("c", `<td class="c">([^<]+)</td>`)},
		{AttributeID: "thing.product.price", SourceID: "shopB", Rule: multiRule("price", `<td class="p">([^<]+)</td>`)},
	}
	for _, e := range append(shopAEntries, shopBEntries...) {
		if err := mw.RegisterMapping(e); err != nil {
			return err
		}
	}

	ctx := context.Background()
	for _, q := range []string{
		"SELECT product WHERE brand = 'Seiko'",
		"SELECT product WHERE case = 'stainless-steel' AND price < 200",
	} {
		res, err := mw.Query(ctx, q)
		if err != nil {
			return err
		}
		fmt.Printf("S2SQL> %s\n", q)
		if err := mw.Generator().Serialize(os.Stdout, res, instance.FormatText); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}
