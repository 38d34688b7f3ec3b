GO ?= go

# Recipes run under pipefail, so a failing `go test` on the left of a
# pipe fails its target instead of hiding behind the right side's exit.
SHELL := bash
.SHELLFLAGS := -o pipefail -ec

# Benchmarks: keep runs short by default; override for steadier numbers,
# e.g. `make bench BENCHTIME=1s`. FAMILY=E17 restricts bench-compare to
# one experiment; the pattern is anchored, so E1 does not select E10–E19.
BENCHTIME ?= 100ms
BENCH_RE = $(if $(FAMILY),^BenchmarkE$(patsubst E%,%,$(FAMILY))[A-Z],.)

.PHONY: check vet fmt lint build test chaos chaos-cluster benchmark-smoke bench bench-compare bench-smoke fuzz loc bin clean

# check is the full gate: go vet, formatting, the repo's own static
# analysis suite, build, the test suite under the race detector, the
# seeded chaos suite, one pass of every benchmark family, and the
# repository benchmark's smoke run.
check: vet fmt lint build test chaos bench-smoke benchmark-smoke

# vet and test also cover the benchmark's nested module (benchmark/),
# which `./...` stops at.
vet:
	$(GO) vet ./...
	$(GO) vet -C benchmark ./...

# fmt fails (and lists the offenders) if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

build:
	$(GO) build ./...

# test runs everything under the race detector; the cache-coherence and
# concurrency suites (plan/schema/compiled-rule invalidation, per-run
# document sharing, concurrent query+invalidation) rely on -race staying
# on here.
test:
	$(GO) test -race ./...
	GOFLAGS=-buildvcs=false $(GO) test -C benchmark -race ./...

# lint runs the repo-specific analyzer suite (stdlibonly, errwrap,
# spanend, ctxfield, determinism, lockbalance, pkgdoc, wgbalance,
# goroleak, errcheck, leakytimer — see docs/STATIC_ANALYSIS.md) over
# every package; non-zero exit on findings.
lint:
	$(GO) run ./cmd/s2s-lint

# chaos runs the seeded fault-injection scenarios (deterministic; see
# docs/ROBUSTNESS.md) and the injector's own unit tests on their own, for
# quick iteration on recovery code. The name matches the 3-node cluster
# suite too (TestChaosCluster*).
chaos:
	$(GO) test -race ./internal/faultinject
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

# bench runs every benchmark family (bench_test.go, E1–E22) with
# allocation stats and rewrites BENCH_baseline.json — the one recorded
# baseline — from that single run; the text output streams to the
# terminal via stderr. A failed family fails the target and leaves the
# committed file untouched. EXPERIMENTS.md's tables are then
#   go run ./cmd/s2s-benchjson -markdown BENCH_baseline.json
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) . \
		| tee /dev/stderr \
		| $(GO) run ./cmd/s2s-benchjson > /tmp/s2s-bench-baseline.json
	mv /tmp/s2s-bench-baseline.json BENCH_baseline.json
	@echo "wrote BENCH_baseline.json"

# bench-compare re-runs the benchmark families — all of them, or one
# with FAMILY=E17 — and diffs them against BENCH_baseline.json, failing
# on any >20% ns/op, allocs/op or *_ns metric regression. Use a longer
# BENCHTIME (e.g. 1s) for trustworthy numbers on noisy machines.
bench-compare:
	$(GO) test -run '^$$' -bench '$(BENCH_RE)' -benchmem -benchtime $(BENCHTIME) . \
		| $(GO) run ./cmd/s2s-benchjson > /tmp/s2s-bench-current.json
	$(GO) run ./cmd/s2s-benchjson -compare BENCH_baseline.json /tmp/s2s-bench-current.json

# bench-smoke runs every family once. `go test ./...` only compiles
# bench_test.go; this executes the families, and with them the
# correctness checks they carry (E1 against ground truth, E8 against
# internal/baseline, E13 and E14 across their arms).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# fuzz runs every fuzz target of the module — each Fuzz* function that
# `go test -list '^Fuzz' ./...` names — for FUZZTIME (default 10s), one
# target after another, and stops at the first failure; a failing input
# is written under its package's testdata/fuzz as usual. `make test`
# already runs every seed corpus, so fuzz only explores beyond it and
# stays out of check, e.g. `make fuzz FUZZTIME=1m`.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -list '^Fuzz' ./... \
		| awk '/^Fuzz/ { names[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2, names[i]; n = 0 }' \
		| while read -r pkg name; do \
			echo "fuzz $$pkg $$name"; \
			$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime $(FUZZTIME) "$$pkg" < /dev/null || exit 1; \
		done

# loc prints, for the packages ROADMAP item 4's size gate counts —
# extract, instance, core, transport — and for mapping, cluster and
# faultinject (item 9 reads extract's and faultinject's rows), one
# package a line: the non-test Go lines (every line of the package's
# non-test .go files) and, second, the code lines among them (lines
# that are neither blank nor a // comment). Then the sums over the
# first four and the totals over all of them. It measures; it gates
# nothing, so it stays out of check.
LOC_PKGS = extract instance core transport mapping cluster faultinject
loc:
	@printf '%-11s %6s %6s\n' package lines code
	@for p in $(LOC_PKGS); do \
		files="$$(ls internal/$$p/*.go | grep -v '_test\.go$$')"; \
		printf '%-11s %6d %6d\n' "$$p" "$$(cat $$files | wc -l)" \
			"$$(cat $$files | grep -cv '^[[:space:]]*\(//.*\)\{0,1\}$$')"; \
	done | awk '{ print; total += $$2; code += $$3; if (NR <= 4) { four += $$2; fourcode += $$3 } } \
		END { printf "%-11s %6d %6d\n%-11s %6d %6d\n", "first4", four, fourcode, "total", total, code }'

# bin builds the two executables into ./bin.
bin:
	$(GO) build -o bin/s2s-server ./cmd/s2s-server
	$(GO) build -o bin/s2s-query ./cmd/s2s-query

clean:
	rm -rf bin
