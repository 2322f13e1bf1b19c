GO ?= go

.PHONY: build test verify vet lint fmt bench cowbench tables

# BENCH_N selects the BENCH_<n>.json the host benchmarks write.
BENCH_N ?= 0

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The tier-1 gate: formatting, vet, build, race-enabled tests, and the
# static bytecode verifier over the examples and the benchmark suite.
verify:
	sh scripts/verify.sh

vet:
	$(GO) run ./cmd/kcmvet -strict -bench examples/*/main.go

# Host-source lint: sentinel-error comparisons, allocations in the
# machine's hot step loops, non-exhaustive trace.Kind switches.
lint:
	$(GO) run ./cmd/kcmlint .

fmt:
	gofmt -w .

# Host wall-clock benchmarks (BenchmarkHost*): median and range of N
# runs, with a host fingerprint, recorded in BENCH_$(BENCH_N).json;
# compare two recordings with scripts/benchcmp.sh.
bench:
	sh scripts/hostbench.sh $(BENCH_N)

# Copy-on-write tenant benchmarks: per-tenant setup cost and retained
# heap for COW clones vs full per-tenant recompiles (BENCH_9.json).
cowbench:
	sh scripts/cowbench.sh 9

# Simulated results: the paper's tables (section 4).
tables:
	$(GO) run ./cmd/kcmbench
