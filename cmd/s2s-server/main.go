// Command s2s-server runs the S2S middleware as an HTTP endpoint over a
// generated workload world — the B2B deployment shape of the paper: partner
// organizations query one semantic endpoint instead of integrating
// pairwise.
//
// Usage:
//
//	s2s-server [-addr :8080] [-db 2] [-xml 2] [-web 2] [-text 2] [-records 100] [-seed 1] [-pprof]
//	           [-max-queries 0] [-budget 0]
//	           [-cluster node-id] [-join http://coordinator]
//
// -max-queries caps concurrent query work; excess requests are shed
// with 503 + Retry-After (docs/ROBUSTNESS.md). -budget bounds each
// query's total extraction time across all sources. How a query is
// answered is not configurable: /query materializes, and /query/stream
// streams eagerly whenever the planner proves the query merge-free and
// the format is instance-incremental (docs/STREAMING.md).
//
// -cluster names this process as a cluster node and layers the
// /cluster/* routes on top of the regular surface (docs/CLUSTER.md).
// Without -join the node is the coordinator and serves partitioned
// scatter-gather queries on /cluster/query; with -join it starts empty,
// joins the coordinator at the given base URL, replicates its catalog,
// and serves restricted extraction sub-requests.
//
// The server exposes /query, /query/stream, /query/batch, /sparql,
// /ontology, /sources, /mappings, /stats, /metrics, /trace/last,
// /health/sources, and /healthz (see internal/transport;
// docs/OBSERVABILITY.md documents the ops surface).
// With -pprof, the Go runtime profiles are additionally served under
// /debug/pprof/.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux; exposed only with -pprof
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/transport"
	"repro/internal/workload"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		db         = flag.Int("db", 2, "database sources")
		xml        = flag.Int("xml", 2, "XML sources")
		web        = flag.Int("web", 2, "web page sources")
		text       = flag.Int("text", 2, "plain-text sources")
		records    = flag.Int("records", 100, "records per source")
		seed       = flag.Int64("seed", 1, "workload generation seed")
		pprofOn    = flag.Bool("pprof", false, "serve Go runtime profiles under /debug/pprof/")
		dumpConfig = flag.String("dump-config", "", "write the generated middleware configuration to this file and continue")
		maxQueries = flag.Int("max-queries", 0, "concurrent query cap; beyond it requests are shed with 503 + Retry-After (0 disables)")
		budget     = flag.Duration("budget", 0, "per-query deadline budget across all sources (0 disables)")
		clusterID  = flag.String("cluster", "", "cluster node ID; enables the /cluster/* routes (see docs/CLUSTER.md)")
		join       = flag.String("join", "", "coordinator base URL to join as a member (requires -cluster); empty makes this node the coordinator")
		advertise  = flag.String("advertise", "", "base URL other cluster nodes reach this node at; defaults to http://localhost<addr>")
	)
	flag.Parse()

	if err := run(*addr, workload.Spec{
		DBSources: *db, XMLSources: *xml, WebSources: *web, TextSources: *text,
		RecordsPerSource: *records, Seed: *seed,
	}, *dumpConfig, *pprofOn, *maxQueries, *budget, *clusterID, *join, *advertise); err != nil {
		fmt.Fprintln(os.Stderr, "s2s-server:", err)
		os.Exit(1)
	}
}

func run(addr string, spec workload.Spec, dumpConfig string, pprofOn bool, maxQueries int, budget time.Duration, clusterID, join, advertise string) error {
	if join != "" && clusterID == "" {
		return fmt.Errorf("-join requires -cluster <node-id>")
	}
	world, err := workload.Generate(spec)
	if err != nil {
		return err
	}
	mw, err := core.NewWithCatalog(world.Ontology, world.Catalog,
		extract.Options{QueryBudget: budget})
	if err != nil {
		return err
	}
	// A joining member starts with an empty catalog — its sources and
	// mappings replicate from the coordinator — but shares the world's
	// backends so it can serve any source it is assigned.
	if join == "" {
		if err := world.Apply(mw); err != nil {
			return err
		}
	}
	if dumpConfig != "" {
		cfg, err := config.FromMiddleware(mw)
		if err != nil {
			return err
		}
		if err := config.SaveFile(dumpConfig, cfg); err != nil {
			return err
		}
		log.Printf("s2s-server: wrote configuration to %s", dumpConfig)
	}
	srv := transport.NewServer(mw, transport.WithMaxConcurrentQueries(maxQueries))
	handler := http.Handler(srv)
	if clusterID != "" {
		if advertise == "" {
			advertise = "http://localhost" + displayAddr(addr)
		}
		node, err := cluster.NewNode(srv, cluster.Options{
			ID: clusterID, Addr: advertise, CoordinatorURL: join,
		})
		if err != nil {
			return err
		}
		if err := node.Start(context.Background()); err != nil {
			return err
		}
		defer node.Stop()
		handler = node
		if join == "" {
			log.Printf("s2s-server: cluster coordinator %q serving /cluster/query", clusterID)
		} else {
			log.Printf("s2s-server: cluster member %q joined %s", clusterID, join)
		}
	}
	if pprofOn {
		mux := http.NewServeMux()
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		mux.Handle("/", handler)
		handler = mux
		log.Printf("s2s-server: pprof enabled at http://localhost%s/debug/pprof/", displayAddr(addr))
	}
	log.Printf("s2s-server: %d sources, %d records, listening on %s",
		len(world.Definitions), len(world.Records), addr)
	log.Printf("s2s-server: try  curl '%s'",
		"http://localhost"+displayAddr(addr)+"/query?q=SELECT+product+WHERE+brand%3D%27Seiko%27&format=json")
	log.Printf("s2s-server: ops  curl http://localhost%s/metrics  |  curl http://localhost%s/trace/last",
		displayAddr(addr), displayAddr(addr))
	return serve(addr, handler)
}

// serve runs the HTTP server until SIGINT/SIGTERM, then drains in-flight
// requests before returning.
func serve(addr string, handler http.Handler) error {
	srv := &http.Server{Addr: addr, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	log.Printf("s2s-server: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Printf("s2s-server: shutdown: %v", err)
	}
	return nil
}

// displayAddr normalizes a listen address for log-friendly URLs.
func displayAddr(addr string) string {
	if strings.HasPrefix(addr, ":") {
		return addr
	}
	if i := strings.LastIndex(addr, ":"); i >= 0 {
		return addr[i:]
	}
	return addr
}
