// Command s2s-query runs one S2SQL query, either against a remote S2S
// endpoint (-endpoint) or against a locally generated workload world.
//
// Usage:
//
//	s2s-query -q "SELECT product WHERE brand='Seiko'" [-format owl|turtle|ntriples|xml|json|text] [-trace]
//	s2s-query -endpoint http://localhost:8080 -q "SELECT provider" -format json -trace
//	s2s-query -endpoint http://localhost:8080 -q "SELECT product" -stream
//
// With -trace, the query's span tree (per-stage and per-source timings;
// see docs/OBSERVABILITY.md) is pretty-printed to stderr after the
// result. In endpoint mode the tree comes back from the server, so a
// federated query shows its remote per-source spans under one trace.
//
// With -stream, the answer leaves in chunks (docs/STREAMING.md): in
// endpoint mode the body arrives via the chunked /query/stream route
// and is written to stdout as it lands; in local mode the query runs
// through the same entry point that route uses (Middleware.Answer with
// a streamed request), which streams eagerly when the query is
// merge-free and the format allows it. Output bytes are identical
// either way.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/reason"
	"repro/internal/sparql"
	"repro/internal/transport"
	"repro/internal/workload"
)

func main() {
	var (
		endpoint = flag.String("endpoint", "", "remote S2S endpoint; empty runs against a local generated world")
		query    = flag.String("q", "SELECT product WHERE brand='Seiko' AND case='stainless-steel'", "S2SQL query")
		sparqlQ  = flag.String("sparql", "", "SPARQL query to run over the S2SQL answer graph")
		doReason = flag.Bool("reason", false, "materialize RDFS entailments before the SPARQL query")
		format   = flag.String("format", "text", "output format: owl, turtle, ntriples, xml, json, text")
		records  = flag.Int("records", 50, "records per source for the local world")
		seed     = flag.Int64("seed", 1, "seed for the local world")
		timeout  = flag.Duration("timeout", 30*time.Second, "query timeout")
		budget   = flag.Duration("budget", 0, "per-query extraction deadline budget for the local world (0 disables)")
		trace    = flag.Bool("trace", false, "print the query's span tree to stderr")
		stream   = flag.Bool("stream", false, "stream the answer in chunks (/query/stream in endpoint mode, a streamed Middleware.Answer locally)")
	)
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if err := run(ctx, *endpoint, *query, *sparqlQ, *format, *records, *seed, *budget, *doReason, *trace, *stream); err != nil {
		fmt.Fprintln(os.Stderr, "s2s-query:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, endpoint, query, sparqlQuery, format string, records int, seed int64, budget time.Duration, doReason, trace, stream bool) error {
	if endpoint != "" {
		client := transport.NewClient(endpoint, nil)
		if stream && sparqlQuery == "" {
			res, err := client.QueryStream(ctx, query, format, os.Stdout)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "# matched=%d related=%d errors=%d bytes=%d (streamed)\n",
				res.Matched, res.Related, res.SourceErrors, res.Bytes)
			return nil
		}
		if sparqlQuery != "" {
			resp, err := client.SPARQL(ctx, transport.SPARQLRequest{
				S2SQL: query, SPARQL: sparqlQuery, Reason: doReason,
			})
			if err != nil {
				return err
			}
			printBindings(resp.Vars, resp.Bindings)
			return nil
		}
		var resp *transport.QueryResponse
		var err error
		if trace {
			resp, err = client.QueryTraced(ctx, query, format)
		} else {
			resp, err = client.Query(ctx, query, format)
		}
		if err != nil {
			return err
		}
		fmt.Printf("# matched=%d related=%d errors=%d format=%s\n",
			resp.Matched, resp.Related, len(resp.Errors), resp.Format)
		for _, e := range resp.Errors {
			fmt.Printf("# error: %s\n", e)
		}
		fmt.Print(resp.Body)
		if trace && resp.Trace != nil {
			fmt.Fprintln(os.Stderr, "# trace:")
			obs.WriteTree(os.Stderr, resp.Trace)
		}
		return nil
	}

	f, err := instance.ParseFormat(format)
	if err != nil {
		return err
	}
	world, err := workload.Generate(workload.Spec{
		DBSources: 1, XMLSources: 1, WebSources: 1, TextSources: 1,
		RecordsPerSource: records, Seed: seed,
	})
	if err != nil {
		return err
	}
	mw, err := core.NewWithCatalog(world.Ontology, world.Catalog,
		extract.Options{QueryBudget: budget})
	if err != nil {
		return err
	}
	if err := world.Apply(mw); err != nil {
		return err
	}
	if sparqlQuery != "" {
		res, err := mw.Query(ctx, query)
		if err != nil {
			return err
		}
		graph, err := mw.Generator().ToGraph(res)
		if err != nil {
			return err
		}
		if doReason {
			graph, err = reason.Materialize(mw.Ontology().ToGraph(), graph)
			if err != nil {
				return err
			}
		}
		out, err := sparql.Select(graph, sparqlQuery)
		if err != nil {
			return err
		}
		rows := make([]map[string]string, 0, len(out.Bindings))
		for _, b := range out.Bindings {
			row := map[string]string{}
			for v, term := range b {
				row[v] = term.String()
			}
			rows = append(rows, row)
		}
		printBindings(out.Vars, rows)
		printLastTrace(mw, trace)
		return nil
	}

	res, _, err := mw.Answer(ctx, core.Request{Query: query, Format: f, Stream: stream}, &core.Sink{W: os.Stdout})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "# matched=%d related=%d errors=%d\n",
		len(res.Matched), len(res.Related), len(res.Errors))
	printLastTrace(mw, trace)
	return nil
}

// printLastTrace prints the most recent completed query trace to stderr.
func printLastTrace(mw *core.Middleware, trace bool) {
	if !trace {
		return
	}
	for _, tr := range mw.Tracer().Last(1) {
		fmt.Fprintln(os.Stderr, "# trace:")
		obs.WriteTree(os.Stderr, tr)
	}
}

func printBindings(vars []string, rows []map[string]string) {
	fmt.Printf("# %d solution(s); vars: %s\n", len(rows), strings.Join(vars, ", "))
	for _, row := range rows {
		parts := make([]string, 0, len(vars))
		for _, v := range vars {
			parts = append(parts, fmt.Sprintf("%s=%s", v, row[v]))
		}
		fmt.Println(strings.Join(parts, "  "))
	}
}
