// Partner alignment example: two B2B partners model the same domain with
// different ontologies. The marketplace answers a query under its watch
// ontology, translates the OWL answer into the partner's German-language
// katalog ontology through a declared alignment, materializes the partner's
// subclass axioms, and the partner queries the result with SPARQL in its
// own vocabulary — cross-organization semantics, end to end.
//
// Run with: go run ./examples/partner-alignment
package main

import (
	"context"
	"fmt"
	"os"

	"repro/examples/partner-alignment/align"
	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/ontology"
	"repro/internal/rdf"
	"repro/internal/reason"
	"repro/internal/sparql"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "partner-alignment:", err)
		os.Exit(1)
	}
}

func run() error {
	// The marketplace: the paper ontology over a generated world.
	world := workload.MustGenerate(workload.Spec{
		DBSources: 1, XMLSources: 1, RecordsPerSource: 6, Seed: 77,
	})
	mw, err := core.NewWithCatalog(world.Ontology, world.Catalog, extract.Options{})
	if err != nil {
		return err
	}
	if err := world.Apply(mw); err != nil {
		return err
	}
	mw.Generator().Provenance = true

	// The partner's own ontology.
	partner, err := buildPartnerOntology()
	if err != nil {
		return err
	}

	// The declared alignment between the two schemas.
	alignment := align.New(world.Ontology, partner)
	for _, step := range []error{
		alignment.MapClass("product", "produkt"),
		alignment.MapClass("watch", "uhr"),
		alignment.MapClass("provider", "lieferant"),
		alignment.MapAttribute("thing.product.brand", "ding.produkt.marke"),
		alignment.MapAttribute("thing.product.price", "ding.produkt.preis"),
		alignment.MapAttribute("thing.product.watch.case", "ding.produkt.uhr.gehaeuse"),
		alignment.MapAttribute("thing.provider.name", "ding.lieferant.name"),
		alignment.MapRelation("product", "hasProvider", "produkt", "hatLieferant"),
	} {
		if step != nil {
			return step
		}
	}

	// 1. The marketplace answers in its own vocabulary.
	res, err := mw.Query(context.Background(), "SELECT product WHERE price < 300")
	if err != nil {
		return err
	}
	graph, err := mw.Generator().ToGraph(res)
	if err != nil {
		return err
	}
	fmt.Printf("marketplace answer: %d instances, %d triples\n", len(res.Matched), graph.Len())

	// 2. Translate into the partner's vocabulary.
	translated, report, err := alignment.Translate(graph)
	if err != nil {
		return err
	}
	fmt.Printf("translated: %d triples kept, %d dropped (unmapped: %v)\n",
		report.TranslatedTriples, report.DroppedTriples, report.UnmappedAttributes)

	// 3. Materialize the partner's own subclass axioms over the data.
	materialized, err := reason.Materialize(partner.ToGraph(), translated)
	if err != nil {
		return err
	}
	fmt.Printf("after partner-side reasoning: %d triples\n\n", materialized.Len())

	// 4. The partner asks questions in German.
	out, err := sparql.Select(materialized, `PREFIX k: <http://partner.de/katalog#>
SELECT ?uhr ?marke ?preis WHERE {
	?uhr a k:produkt .
	?uhr k:ding_produkt_marke ?marke .
	?uhr k:ding_produkt_preis ?preis .
	FILTER (?preis < 200)
} ORDER BY ?preis`)
	if err != nil {
		return err
	}
	fmt.Println("partner SPARQL> produkte unter 200:")
	for _, b := range out.Bindings {
		fmt.Printf("  %-40s %-10s %s\n", b["uhr"], b["marke"], b["preis"])
	}

	// Provenance survived translation — the partner can audit lineage.
	prov, err := sparql.Select(materialized,
		`SELECT ?x ?src WHERE { ?x <http://s2s.uma.pt/ns#sourcedFrom> ?src . } LIMIT 3`)
	if err != nil {
		return err
	}
	fmt.Println("\nprovenance (first 3):")
	for _, b := range prov.Bindings {
		fmt.Printf("  %s <- %s\n", b["x"], b["src"])
	}
	return nil
}

func buildPartnerOntology() (*ontology.Ontology, error) {
	ont, err := ontology.New("http://partner.de/katalog#", "katalog", "ding")
	if err != nil {
		return nil, err
	}
	for _, c := range []struct{ name, parent string }{
		{"produkt", "ding"}, {"uhr", "produkt"}, {"lieferant", "ding"},
	} {
		if _, err := ont.AddClass(c.name, c.parent); err != nil {
			return nil, err
		}
	}
	for _, a := range []struct {
		class, name string
		dt          rdf.IRI
	}{
		{"produkt", "marke", rdf.XSDString},
		{"produkt", "preis", rdf.XSDDouble},
		{"uhr", "gehaeuse", rdf.XSDString},
		{"lieferant", "name", rdf.XSDString},
	} {
		if _, err := ont.AddAttribute(a.class, a.name, a.dt); err != nil {
			return nil, err
		}
	}
	if _, err := ont.AddRelation("produkt", "hatLieferant", "lieferant"); err != nil {
		return nil, err
	}
	return ont, nil
}
