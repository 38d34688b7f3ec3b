package main

// workloads.go defines the five workloads: the world each one stands on
// and the seeded operation trace replayed against it. Nothing here
// touches the system under test; layers.go turns a worldSpec into a
// running middleware.

import (
	"fmt"
	"math/rand"
	"strings"
)

// worldSpec is the shape of a generated world: sources of each kind,
// records per source, and the latency injected in front of every web and
// text source.
type worldSpec struct {
	DB, XML, Web, Text int
	Records            int
	// Flat builds on the relation-free ontology, so product queries are
	// provably merge-free and /query/stream emits barrier-free.
	Flat bool
	// PartnerLatencyMs delays every web and text backend call.
	PartnerLatencyMs int
}

// record is the ground truth of one generated product, as the oracle
// predicates see it.
type record struct {
	Brand, Case, Source string
	Price               float64
	Water               int
}

type opKind int

const (
	opQuery    opKind = iota // GET /query
	opStream                 // GET /query/stream
	opBatch                  // POST /query/batch
	opRegister               // POST /sources with a fresh unmapped source
)

// op is one operation of a trace. Query ops carry one query, batch ops
// several; a register op carries nothing (the source ID is drawn at send
// time so every registration is fresh).
type op struct {
	Kind    opKind
	Queries []string
	Format  string
}

func (o op) route() string {
	switch o.Kind {
	case opStream:
		return "/query/stream"
	case opBatch:
		return "/query/batch"
	case opRegister:
		return "/sources"
	}
	return "/query"
}

// workloadDef is one named workload.
type workloadDef struct {
	Name string
	Why  string
	Spec worldSpec
	// Trace builds the operation cycle for a seed; clients replay it
	// round-robin for as long as the window lasts.
	Trace func(rng *rand.Rand) []op
	// RegisterEvery, when positive, turns every Nth operation of the
	// replay into a register op (the trace itself is left intact).
	RegisterEvery int
	// TracedOps is how many operations the traced pass stages. It is a
	// constant per workload, not a time budget, so the counts the pass
	// reports repeat exactly at a given seed.
	TracedOps int
}

var (
	brands = []string{"Seiko", "Casio", "Citizen", "Orient", "Pulsar", "Timex", "Swatch", "Fossil"}
	cases  = []string{"stainless-steel", "gold", "resin", "titanium", "ceramic"}
)

// Query templates. Each has an oracle predicate over the ground truth;
// web sources publish no water resistance, so their records never
// satisfy a water_resistance condition.
func brandQuery(b string) string { return fmt.Sprintf("SELECT product WHERE brand='%s'", b) }
func brandCaseQuery(b, c string) string {
	return fmt.Sprintf("SELECT product WHERE brand='%s' AND case='%s'", b, c)
}
func priceQuery(lt int) string { return fmt.Sprintf("SELECT product WHERE price<%d", lt) }
func waterQuery(ge int) string { return fmt.Sprintf("SELECT product WHERE water_resistance>=%d", ge) }

const allQuery = "SELECT product"

// oracle returns the ground-truth predicate of a query built by the
// templates above. Every benchmark query has one.
func oracle(query string) (func(record) bool, error) {
	rest, ok := strings.CutPrefix(query, allQuery)
	if !ok {
		return nil, fmt.Errorf("no oracle for query %q", query)
	}
	if rest == "" {
		return func(record) bool { return true }, nil
	}
	var b, c string
	var n int
	switch {
	case scan(rest, " WHERE brand='%s AND case='%s", &b, &c):
		b, c = strings.TrimSuffix(b, "'"), strings.TrimSuffix(c, "'")
		return func(r record) bool { return r.Brand == b && r.Case == c }, nil
	case scan(rest, " WHERE brand='%s", &b):
		b = strings.TrimSuffix(b, "'")
		return func(r record) bool { return r.Brand == b }, nil
	case scan(rest, " WHERE price<%d", &n):
		return func(r record) bool { return r.Price < float64(n) }, nil
	case scan(rest, " WHERE water_resistance>=%d", &n):
		return func(r record) bool { return !strings.HasPrefix(r.Source, "web_") && r.Water >= n }, nil
	}
	return nil, fmt.Errorf("no oracle for query %q", query)
}

// scan reports whether s matches the format completely.
func scan(s, format string, args ...any) bool {
	n, err := fmt.Sscanf(s, format, args...)
	return err == nil && n == len(args)
}

// paperTrace is the 64-entry trace of the paper's §2.5 query shapes,
// 43 answered as OWL and 21 as JSON. The share of every shape, parameter
// and format is exact: each brand is asked for equally often, each
// threshold equally often, and within a shape every third entry is JSON,
// so a given query always comes in the same format. The seed picks the
// pairing of brands with cases and the order. That keeps the work per
// cycle the same at every seed, so seeds differ in the generated data,
// not in how heavy the mix is.
func paperTrace(rng *rand.Rand) []op {
	var trace []op
	shape := func(n int, query func(i int) string) {
		for i := 0; i < n; i++ {
			format := "owl"
			if i%3 == 1 {
				format = "json"
			}
			trace = append(trace, op{Kind: opQuery, Queries: []string{query(i)}, Format: format})
		}
	}
	caseAt := rng.Perm(len(cases))
	shape(16, func(i int) string {
		return brandCaseQuery(brands[i%len(brands)], cases[caseAt[i%len(cases)]])
	})
	shape(16, func(i int) string { return brandQuery(brands[i%len(brands)]) })
	shape(12, func(i int) string { return priceQuery(60 + 50*(i%6)) })
	shape(12, func(i int) string { return waterQuery(50 + 50*(i%4)) })
	shape(8, func(int) string { return allQuery })
	rng.Shuffle(len(trace), func(i, j int) { trace[i], trace[j] = trace[j], trace[i] })
	return trace
}

// bulkTrace asks each query once per listed format, in seeded order.
func bulkTrace(kind opKind, queries []string, formats ...string) func(*rand.Rand) []op {
	return func(rng *rand.Rand) []op {
		var trace []op
		for _, q := range queries {
			for _, f := range formats {
				trace = append(trace, op{Kind: kind, Queries: []string{q}, Format: f})
			}
		}
		rng.Shuffle(len(trace), func(i, j int) { trace[i], trace[j] = trace[j], trace[i] })
		return trace
	}
}

// slowTrace is three single-brand queries, then a batch of all eight
// brand queries, repeated until every brand was asked for alone three
// times; the seed orders the brands. Three to one, not alternating: with
// as many batches as single queries the median latency would sit between
// the two and flip from run to run. This way the median is a single
// query's latency and the 90th percentile a batch's.
func slowTrace(rng *rand.Rand) []op {
	batch := make([]string, len(brands))
	for i, b := range rng.Perm(len(brands)) {
		batch[i] = brandQuery(brands[b])
	}
	var trace []op
	for i := 0; i < 3*len(brands); i++ {
		trace = append(trace, op{Kind: opQuery, Queries: []string{batch[i%len(batch)]}, Format: "json"})
		if i%3 == 2 {
			trace = append(trace, op{Kind: opBatch, Queries: batch, Format: "json"})
		}
	}
	return trace
}

var paperWorld = worldSpec{DB: 2, XML: 2, Web: 2, Text: 2, Records: 100}

// workloads lists the benchmark's workloads in reporting order. The
// names are fixed: later issues cite them.
var workloads = []workloadDef{
	{
		Name:      "paper_mix",
		Why:       "everyday small answers with plan, schema and rule caches warm; all four extractor kinds and the generator share the time",
		Spec:      paperWorld,
		Trace:     paperTrace,
		TracedOps: 64,
	},
	{
		Name:          "onboarding_churn",
		Why:           "paper_mix with a source registered every 16th op, so the same caches are flushed and refilled beside the reads",
		Spec:          paperWorld,
		Trace:         paperTrace,
		RegisterEvery: 16,
		TracedOps:     68,
	},
	{
		Name: "bulk_owl",
		Why:  "thousand-instance OWL answers: RDF serialization does most of the work and extraction little",
		Spec: worldSpec{DB: 1, XML: 1, Records: 500},
		Trace: bulkTrace(opQuery, []string{allQuery, priceQuery(255), waterQuery(110)},
			"owl", "owl", "owl", "owl"),
		TracedOps: 24,
	},
	{
		Name: "bulk_stream",
		Why:  "merge-free streamed answers: extraction and windowed generation dominate, bytes leave before the answer is complete",
		Spec: worldSpec{DB: 1, XML: 1, Web: 1, Text: 1, Records: 1000, Flat: true},
		Trace: bulkTrace(opStream, []string{allQuery, priceQuery(255), priceQuery(130)},
			"json", "json", "json", "xml"),
		TracedOps: 24,
	},
	{
		Name:      "slow_partners",
		Why:       "web and text partners answer 4 ms late: waiting on sources sets the latency, so source parallelism and batching do the work",
		Spec:      worldSpec{DB: 1, XML: 1, Web: 4, Text: 2, Records: 50, PartnerLatencyMs: 4},
		Trace:     slowTrace,
		TracedOps: 32,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// traceIndex maps operation number n of the replay to its position in a
// trace of the given length, cycling; -1 means operation n is one of the
// every-RegisterEvery-th registrations that interleave the trace.
func (w workloadDef) traceIndex(n, traceLen int) int {
	if w.RegisterEvery > 0 {
		if n%w.RegisterEvery == w.RegisterEvery-1 {
			return -1
		}
		n -= n / w.RegisterEvery
	}
	return n % traceLen
}
