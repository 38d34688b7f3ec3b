GO ?= go

# Benchmarks: keep runs short by default; override for steadier numbers,
# e.g. `make bench BENCHTIME=1s`.
BENCHTIME ?= 100ms

.PHONY: check vet fmt lint build test chaos chaos-cluster benchmark-smoke bench bench-compare bench-pushdown bench-stream bench-hedge bench-semijoin bench-firstinstance bench-batch bin clean

# check is the full gate: go vet, formatting, the repo's own static
# analysis suite, build, the test suite under the race detector, the
# seeded chaos suite, and the repository benchmark's smoke run.
check: vet fmt lint build test chaos benchmark-smoke

vet:
	$(GO) vet ./...

# fmt fails (and lists the offenders) if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

build:
	$(GO) build ./...

# test runs everything under the race detector; the cache-coherence and
# concurrency suites (plan/schema/compiled-rule invalidation, singleflight
# dedup, concurrent query+invalidation) rely on -race staying on here.
test:
	$(GO) test -race ./...

# lint runs the repo-specific analyzer suite (stdlibonly, errwrap,
# spanend, ctxfield, determinism, lockbalance, pkgdoc, wgbalance,
# goroleak, errcheck, leakytimer — see docs/STATIC_ANALYSIS.md) over
# every package; non-zero exit on findings.
lint:
	$(GO) run ./cmd/s2s-lint

# chaos runs the seeded fault-injection scenarios (deterministic; see
# docs/ROBUSTNESS.md) on their own, for quick iteration on recovery code.
# The name matches the 3-node cluster suite too (TestChaosCluster*).
chaos:
	$(GO) test -race -run Chaos ./internal/integration

# chaos-cluster runs only the 3-node cluster fault suite (slow node,
# node death, mid-query kill, lost partition, catalog race; see
# docs/CLUSTER.md) under the race detector.
chaos-cluster:
	$(GO) test -race -run ChaosCluster ./internal/integration

# benchmark-smoke builds the repository benchmark (benchmark/, a nested
# module that root `go build ./...` and `go test ./...` do not descend
# into) and runs every workload for one second, untraced and traced,
# failing on any failed operation. benchmark/layers.go pins internal/*
# symbols, and its traced pass checks that the staged pipeline's bytes
# equal the wire bytes, so this is what keeps a refactor from silently
# breaking the benchmark.
benchmark-smoke:
	bash benchmark/run.sh -smoke

# bench runs the root benchmark families (bench_test.go, E1–E22) with
# allocation stats and persists a machine-readable baseline for the perf
# trajectory. The text output still streams to the terminal via stderr.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) . \
		| tee /dev/stderr \
		| $(GO) run ./cmd/s2s-benchjson > BENCH_baseline.json
	@echo "wrote BENCH_baseline.json"

# bench-compare re-runs the benchmark families and diffs them against
# the committed baseline, failing on any >20% ns/op or allocs/op
# regression. Use a longer BENCHTIME (e.g. 1s) for trustworthy numbers
# on noisy machines.
bench-compare:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) . \
		| $(GO) run ./cmd/s2s-benchjson > /tmp/s2s-bench-current.json
	$(GO) run ./cmd/s2s-benchjson -compare BENCH_baseline.json /tmp/s2s-bench-current.json

# bench-pushdown records only the query-planner family (E17
# pushdown/nopushdown pair) into BENCH_pushdown.json — the measurement
# docs/PERFORMANCE.md cites for the planner's speedup.
bench-pushdown:
	$(GO) test -run '^$$' -bench BenchmarkE17 -benchmem -benchtime $(BENCHTIME) . \
		| tee /dev/stderr \
		| $(GO) run ./cmd/s2s-benchjson > BENCH_pushdown.json
	@echo "wrote BENCH_pushdown.json"

# bench-stream records only the streaming-pipeline family (E18
# streaming/materializing pair across the row sweep) into
# BENCH_stream.json — the measurement docs/STREAMING.md and
# docs/PERFORMANCE.md cite for the bounded-memory path. Compare a fresh
# run against it with
#   go run ./cmd/s2s-benchjson -compare BENCH_stream.json <current.json>
# which fails on any >20% ns/op or allocs/op regression.
bench-stream:
	$(GO) test -run '^$$' -bench BenchmarkE18 -benchmem -benchtime $(BENCHTIME) . \
		| tee /dev/stderr \
		| $(GO) run ./cmd/s2s-benchjson > BENCH_stream.json
	@echo "wrote BENCH_stream.json"

# bench-hedge records only the hedged-dispatch family (E19 hedged/
# unhedged pair against a 3-node cluster with one slow node) into
# BENCH_hedge.json — the measurement docs/CLUSTER.md cites for the
# tail-latency win. Compare a fresh run against it with
#   go run ./cmd/s2s-benchjson -compare BENCH_hedge.json <current.json>
bench-hedge:
	$(GO) test -run '^$$' -bench BenchmarkE19 -benchmem -benchtime $(BENCHTIME) . \
		| tee /dev/stderr \
		| $(GO) run ./cmd/s2s-benchjson > BENCH_hedge.json
	@echo "wrote BENCH_hedge.json"

# bench-semijoin records only the planner-v3 family (E20 semijoin/
# nosemijoin pair over a directory-plus-details world) into
# BENCH_semijoin.json — the measurement docs/PERFORMANCE.md cites for
# semi-join narrowing. Compare a fresh run against it with
#   go run ./cmd/s2s-benchjson -compare BENCH_semijoin.json <current.json>
bench-semijoin:
	$(GO) test -run '^$$' -bench BenchmarkE20 -benchmem -benchtime $(BENCHTIME) . \
		| tee /dev/stderr \
		| $(GO) run ./cmd/s2s-benchjson > BENCH_semijoin.json
	@echo "wrote BENCH_semijoin.json"

# bench-firstinstance records only the barrier-free streaming family
# (E21 eager/barrier pair, one slow source on a merge-free query) into
# BENCH_firstinstance.json — the time-to-first-instance measurement
# docs/STREAMING.md and docs/PERFORMANCE.md cite. The custom
# first_instance_ns metric is gated by s2s-benchjson -compare alongside
# ns/op. Compare a fresh run against it with
#   go run ./cmd/s2s-benchjson -compare BENCH_firstinstance.json <current.json>
bench-firstinstance:
	$(GO) test -run '^$$' -bench BenchmarkE21 -benchmem -benchtime $(BENCHTIME) . \
		| tee /dev/stderr \
		| $(GO) run ./cmd/s2s-benchjson > BENCH_firstinstance.json
	@echo "wrote BENCH_firstinstance.json"

# bench-batch records only the multi-query batch family (E22 batch8/
# sequential8 pair against remote web sources) into BENCH_batch.json —
# the per-query amortization measurement docs/PERFORMANCE.md cites for
# POST /query/batch. Compare a fresh run against it with
#   go run ./cmd/s2s-benchjson -compare BENCH_batch.json <current.json>
bench-batch:
	$(GO) test -run '^$$' -bench BenchmarkE22 -benchmem -benchtime $(BENCHTIME) . \
		| tee /dev/stderr \
		| $(GO) run ./cmd/s2s-benchjson > BENCH_batch.json
	@echo "wrote BENCH_batch.json"

# bin builds the two executables into ./bin.
bin:
	$(GO) build -o bin/s2s-server ./cmd/s2s-server
	$(GO) build -o bin/s2s-query ./cmd/s2s-query

clean:
	rm -rf bin
