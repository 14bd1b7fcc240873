GO ?= go

.PHONY: build test race fmt vet lint fuzz bench benchmark smoke experiments

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# lint runs the project's own static-analysis suite (internal/analysis
# via cmd/funcx-vet): exhaustive protocol/opcode switches (the task
# record's transition function among them), the monotonic-clock trace
# discipline, the metric-family registry, context flow through request
# paths, select-guarded channel sends on hot paths, and Debug calls
# asked for only when debug is on. Nonzero on any unsuppressed finding;
# see README "Static analysis".
lint:
	$(GO) run ./cmd/funcx-vet ./...

# fuzz runs the native fuzz targets for the hand-rolled parsers as a
# short smoke, the same budget CI uses. The checked-in corpora under
# each package's testdata/fuzz/ also replay in plain `go test`.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -fuzz=FuzzRestamp -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/promtext
	$(GO) test -fuzz=FuzzReplay -fuzztime=$(FUZZTIME) ./internal/wal

# bench runs the control-plane benchmark suite (submit hot path
# in-memory vs WAL, batch wait, tracing overhead, OTLP export
# overhead, server-side DAG vs client-orchestrated fan-in) and writes
# BENCH_10.json. The floors are regression tripwires: the measured WAL
# ratio sits around 0.7x, so anything under 0.5x means the group
# commit stopped amortizing. The tracing budget is ≤5% on the submit
# hot path; on a single-core box the background lifecycle work (task
# and result codecs, GC) shares the submit core and the measured ratio
# reads ~0.9x, so the tripwire is 0.85 — a lock or fsync landing on
# the traced submit path shows up as 0.5x, not 0.9x. OTLP export gets
# the same 0.85 floor: the submit path only ever pays a drop-oldest
# channel send, so anything below it means export work leaked onto the
# hot path. The DAG comparison measures ~7x; 1.5 is the point where
# server-side composition stops paying for itself.
bench:
	$(GO) run ./cmd/funcx-perf -out BENCH_10.json -wal-floor 0.5 -trace-floor 0.85 -otlp-floor 0.85 -dag-floor 1.5

# benchmark runs the repository benchmark (benchmark/README.md): all
# five workloads through real SDK clients, every result's bytes
# compared, nonzero exit on a failed task or a broken trace invariant.
# BENCHMARK.json names the metrics and their bounds.
benchmark:
	$(GO) run ./benchmark -check

# smoke runs the durability experiment (WAL crash recovery + shard
# drain) and the dag workflow experiment (server-side composition,
# client disconnect, kill+restart mid-graph) in quick mode, as CI does.
smoke:
	$(GO) run ./cmd/funcx-bench -quick -experiment durability
	$(GO) run ./cmd/funcx-bench -quick -experiment dag

# experiments runs every registered §5 driver in quick mode.
experiments:
	$(GO) run ./cmd/funcx-bench -quick
