# predcache build and verification targets. All of them use only the Go
# toolchain: the module has zero external dependencies, including its own
# static-analysis suite (internal/lint).

GO ?= go

.PHONY: all build fmt test race stress test-debug vet lint admin-smoke systab-smoke trace-smoke server-smoke bench-smoke benchmark benchmark-compare check clean

all: build

build:
	$(GO) build ./...

# gofmt must have nothing to say about any file in the tree, lint fixtures
# included.
fmt:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

# Unit tests (tier-1 verification).
test:
	$(GO) test ./...

# Full suite under the race detector; includes the concurrency stress tests.
race:
	$(GO) test -race ./...

# Just the DML-vs-vacuum and concurrency stress tests, under the race
# detector with the pcdebug assertions compiled in — the harshest setting.
# The kernel equivalence oracles ride along: they hammer the pooled scan
# scratch and the encoded/decoded split from many goroutines, and
# TestKernelDMLEquivalence holds DeleteWhere/UpdateWhere row matching (an
# engine scan) to the serial decode-only reference; so do the kernel fuzz
# target's seed corpus and the block-loop tests. CI runs this target, not a
# copy of its commands.
stress:
	$(GO) test -race -tags pcdebug -run 'TestDMLVacuumRace|TestConcurrentQueriesAndDML|TestRaceStressParallelScans|TestRaceStressParallelOperators|TestKernel' -count=2 .
	$(GO) test -race -tags pcdebug -run 'TestKernel|TestEvalPredRanges|TestReadIntRange|TestReadFloatRange|FuzzEvalPred' ./internal/storage ./internal/expr
	$(GO) test -race -tags pcdebug -run 'TestScan|TestRunWorkers' ./internal/engine

# Tests with the pcdebug build tag: runtime invariant assertions (row-range
# shape, zone-map bounds, MVCC monotonicity) are compiled in and panic on
# violation.
test-debug:
	$(GO) test -tags pcdebug ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis (errwrap, bufalias, lockorder) over the
# whole module under both tag configurations (default and pcdebug). Any
# finding fails TestRepoClean; `make test` runs the same gate.
lint:
	$(GO) test -count=1 ./internal/lint

# End-to-end smoke suites (scripts/smoke.sh <suite>; `scripts/smoke.sh all`
# runs the four in one go). Each boots the shipped binaries and asserts
# through SQL, the wire protocol, HTTP or files on disk:
#   admin-smoke    pcserver -admin: /metrics families, pc.query_shapes,
#                  query_id/shape pprof labels on /debug/pprof/profile, a
#                  parseable /debug/pprof/heap
#   systab-smoke   pcserver + pcsh: pc.query_log / pc.cache_stats /
#                  pc.table_storage answer
#   trace-smoke    pcserver -slow 1ns -log + pcsh: trace retention (pc.traces /
#                  pc.trace_spans), pc.slo, pc.runtime, trace-correlated log lines
#   server-smoke   pcserver on an ephemeral port driven by cmd/pcsh: queries,
#                  prepared statements, error recovery, pc.sessions /
#                  pc.plan_cache, SIGTERM drain
admin-smoke systab-smoke trace-smoke server-smoke:
	./scripts/smoke.sh $(@:-smoke=)

# One-iteration compile-and-run of the scan benchmarks: catches bit-rot in
# the benchmark harness without paying full measurement time. The Table4
# run exercises the morsel-parallel join/agg path at 1 and 4 procs, and the
# engine equivalence tests fail the target on any serial-vs-parallel result
# divergence (bit-exact, including float payloads); the scan's and the
# pipeline's byte, allocation and cancellation guards run at both proc
# counts too. The kernel micro-benchmarks
# (2,048 distinct random blocks each), the one-candidate-block hit and the
# per-sink cost of the observability tail (BenchmarkEmit, DESIGN.md §16) and
# the DeleteWhere/UpdateWhere statements of mixed_dml (BenchmarkDML) and each
# TPC-H query on skewed SF 0.05 (BenchmarkTPCHQuery/Q<n>) ride along at one
# iteration.
bench-smoke:
	$(GO) test -run=NONE -bench='BenchmarkScan|BenchmarkEmit|BenchmarkDML' -benchtime=1x .
	$(GO) test -run=NONE -bench=BenchmarkEvalPred -benchtime=1x ./internal/storage
	$(GO) test -run=NONE -bench=BenchmarkScanHitOneBlock -benchtime=1x ./internal/engine
	$(GO) test -run=NONE -bench=BenchmarkTPCHQuery -benchtime=1x ./internal/tpch
	$(GO) test -run=NONE -bench=BenchmarkTable4TPCHSkewed -benchtime=1x -cpu 1,4 .
	$(GO) test -run 'TestJoinParallelSerialIdentical|TestAggParallelSerialIdentical|TestJoinChainMatchesMaterialized|TestJoinChainBytesPerProbeRow|TestAggOverChainCancel|TestAggBytesPerGroup|TestGlobalAggOverJoinStaysMaterialized|TestScanBytesPerOutputRow|TestScanWorkerCountIndependent|TestScanCancelAmortisedAndCacheSafe|TestHotPathAllocs|TestWarmParallelPipelineAllocs' -cpu 1,4 ./internal/engine

# The benchmark of record (BENCHMARK.json, benchmark/README.md): every
# workload, RUNS untraced runs with consecutive seeds plus one traced pass
# each, every run in its own process, written to OUT (about 2.5 minutes per
# run of the four workloads). benchmark-compare checks set B against set A
# with the bounds in BENCHMARK.json and exits 1 on a regression.
RUNS ?= 10
OUT ?= benchmark/results/latest.json
benchmark:
	bash benchmark/run.sh -seed 1 -runs $(RUNS) -out $(OUT)

benchmark-compare:
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make benchmark-compare A=parent.json B=change.json"; exit 2; }
	bash benchmark/run.sh -compare $(A) $(B)

# Everything CI runs.
check: build fmt vet lint test race stress test-debug bench-smoke admin-smoke systab-smoke trace-smoke server-smoke

clean:
	$(GO) clean ./...
