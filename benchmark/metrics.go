package main

// metrics.go declares every metric the harness emits. BENCHMARK.json
// repeats the names, units, directions and bounds; manifest_test.go
// keeps the two equal.

// metricDef is one declared metric. Bound (end-to-end only) is the share
// of the parent's median by which the metric may worsen before a change
// counts as a regression. Moves (per-layer only) names the end-to-end
// metric and workload the layer metric is expected to move.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Moves  string
}

var endToEnd = []metricDef{
	{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ttfb_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "instances_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower", Bound: 0.05},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

var perLayer = []metricDef{
	{Name: "s2sql.parse_plan_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms on onboarding_churn (cached elsewhere)"},
	{Name: "core.plan_cached_us", Unit: "us", Better: "lower", Moves: "qps on paper_mix"},
	{Name: "core.plan_miss_per_op", Unit: "ratio", Better: "lower", Moves: "qps on paper_mix (near 0 there); high on onboarding_churn by construction"},
	{Name: "core.query_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms on every /query workload"},
	{Name: "core.register_ms", Unit: "ms", Better: "lower", Moves: "qps on onboarding_churn"},
	{Name: "mapping.schema_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms on onboarding_churn"},
	{Name: "planner.rewrite_us", Unit: "us", Better: "lower", Moves: "cpu_ms_per_op on onboarding_churn (cached per shape elsewhere)"},
	{Name: "planner.sources_pruned_per_op", Unit: "count", Better: "higher", Moves: "cpu_ms_per_op on paper_mix"},
	{Name: "planner.pushdown_applied_per_op", Unit: "count", Better: "higher", Moves: "cpu_ms_per_op on paper_mix"},
	{Name: "planner.semijoin_per_op", Unit: "count", Better: "higher", Moves: "cpu_ms_per_op on paper_mix (0: no benchmark world sets a class key)"},
	{Name: "planner.mergefree_proved_ratio", Unit: "ratio", Better: "higher", Moves: "ttfb_p50_ms on bulk_stream (must be 1 there, 0 on bulk_owl)"},
	{Name: "extract.db_ms", Unit: "ms", Better: "lower", Moves: "cpu_ms_per_op and latency_p50_ms on bulk_stream and paper_mix"},
	{Name: "extract.xml_ms", Unit: "ms", Better: "lower", Moves: "cpu_ms_per_op and latency_p50_ms on bulk_stream and paper_mix"},
	{Name: "extract.web_ms", Unit: "ms", Better: "lower", Moves: "cpu_ms_per_op and latency_p50_ms on bulk_stream and paper_mix"},
	{Name: "extract.text_ms", Unit: "ms", Better: "lower", Moves: "cpu_ms_per_op and latency_p50_ms on bulk_stream and paper_mix"},
	{Name: "extract.all_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms on slow_partners"},
	{Name: "extract.parallel_speedup", Unit: "ratio", Better: "higher", Moves: "latency_p50_ms on slow_partners (about 1 on CPU-bound worlds)"},
	{Name: "extract.fragments_per_op", Unit: "count", Better: "lower", Moves: "allocs_per_op on bulk_stream"},
	{Name: "extract.allocs_per_op", Unit: "count", Better: "lower", Moves: "allocs_per_op on bulk_stream"},
	{Name: "extract.retries_per_op", Unit: "count", Better: "lower", Moves: "latency_p90_ms on slow_partners (must be 0)"},
	{Name: "extract.source_errors_per_op", Unit: "count", Better: "lower", Moves: "latency_p90_ms on slow_partners (must be 0)"},
	{Name: "instance.generate_ms", Unit: "ms", Better: "lower", Moves: "instances_per_s on bulk_stream and bulk_owl"},
	{Name: "instance.generate_allocs_per_op", Unit: "count", Better: "lower", Moves: "allocs_per_op on bulk_stream and bulk_owl"},
	{Name: "instance.instances_per_op", Unit: "count", Better: "higher", Moves: "instances_per_s on bulk_stream and bulk_owl"},
	{Name: "instance.serialize_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms on bulk_owl (near nothing on paper_mix)"},
	{Name: "instance.serialize_allocs_per_op", Unit: "count", Better: "lower", Moves: "allocs_per_op on bulk_owl"},
	{Name: "instance.bytes_per_instance", Unit: "B", Better: "lower", Moves: "latency_p50_ms on bulk_owl"},
	{Name: "instance.serialize_owl_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms on bulk_owl"},
	{Name: "instance.serialize_turtle_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms on bulk_owl if its traffic asked for Turtle (none does); shares the RDF graph path with serialize_owl_ms"},
	{Name: "instance.serialize_ntriples_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms on bulk_owl if its traffic asked for N-Triples (none does); shares the RDF graph path with serialize_owl_ms"},
	{Name: "instance.serialize_json_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms on bulk_stream"},
	{Name: "instance.serialize_xml_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms on bulk_stream"},
	{Name: "instance.stream_first_chunk_ms", Unit: "ms", Better: "lower", Moves: "ttfb_p50_ms on bulk_stream (elsewhere the barrier holds the first chunk back)"},
	{Name: "instance.chunk_highwater_kb", Unit: "KiB", Better: "lower", Moves: "alloc_kb_per_op on bulk_stream"},
	{Name: "transport.overhead_ms", Unit: "ms", Better: "lower", Moves: "latency_p90_ms on every workload"},
	{Name: "transport.bytes_per_op", Unit: "B", Better: "lower", Moves: "latency_p90_ms on bulk_owl"},
	{Name: "transport.tail_p99_ms", Unit: "ms", Better: "lower", Moves: "latency_p90_ms on every workload"},
	{Name: "transport.max_ms", Unit: "ms", Better: "lower", Moves: "latency_p90_ms on every workload"},
	{Name: "transport.shed_total", Unit: "count", Better: "lower", Moves: "qps on every workload (must be 0: shedding is off)"},
	{Name: "runtime.peak_heap_mb", Unit: "MiB", Better: "lower", Moves: "alloc_kb_per_op on bulk_owl and bulk_stream"},
	{Name: "runtime.gc_cycles_per_s", Unit: "1/s", Better: "lower", Moves: "latency_p90_ms on bulk_owl and bulk_stream"},
	{Name: "runtime.goroutines_max", Unit: "count", Better: "lower", Moves: "latency_p90_ms on slow_partners"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Moves: "nothing end to end: how far the staged pass is from one QueryTo call"},
	{Name: "trace.self_other_ms", Unit: "ms", Better: "lower", Moves: "nothing end to end: harness time inside a traced op"},
}
