# Convenience targets for the ILAN reproduction.

GO ?= go

.PHONY: all check build vet test bench bench-all race cover figures smoke fuzz clean

all: check

# The default gate: build, vet, tests, and a race-detector pass over the
# parallel experiment executor.
check: build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Hot-path benchmarks (event engine, dispatch/steal loop, full campaign,
# fluid refresh, task execution, access resolution) with allocation stats; each run appends a commit-stamped entry to the
# BENCH_hotpath.json trajectory.
bench:
	$(GO) test -bench='BenchmarkEngineEvents|BenchmarkDispatchSteal|BenchmarkFullCampaignCG|BenchmarkRefreshStorm|BenchmarkMachineExec|BenchmarkResolver' \
		-benchmem -run=NONE . | tee /dev/stderr | \
		$(GO) run ./cmd/benchjson -commit $$(git rev-parse --short HEAD) -file BENCH_hotpath.json

# Full benchmark sweep (figures, ablations, micro-benches).
bench-all:
	$(GO) test -bench=. -benchmem -run=NONE .

# Each simulated run is single-threaded by design, but the harness fans
# independent runs across goroutines (internal/harness/pool.go), so the
# race detector guards the executor as well as the tests themselves.
race:
	$(GO) test -race ./...

cover:
	$(GO) test -coverprofile=cover.out ./... && $(GO) tool cover -func=cover.out | tail -1

# Coverage-guided fuzzing of the simulator under the invariant checker
# and metamorphic oracles (DESIGN.md §11), of the fluid solver, event
# engine and L3 model against their references, and of the looplang
# document decoder, then a randomized soak run.
# FUZZTIME bounds each native target; corpora seed from testdata/fuzz/.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz=FuzzScenario -fuzztime=$(FUZZTIME) ./internal/simcheck
	$(GO) test -fuzz=FuzzRenumbering -fuzztime=$(FUZZTIME) ./internal/simcheck
	$(GO) test -fuzz=FuzzSpecValidate -fuzztime=$(FUZZTIME) ./internal/topology
	$(GO) test -fuzz=FuzzReferenceSolver -fuzztime=$(FUZZTIME) ./internal/machine
	$(GO) test -fuzz=FuzzEngineOrder -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -fuzz=FuzzCacheOrder -fuzztime=$(FUZZTIME) ./internal/memsys
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/looplang
	$(GO) test -fuzz=FuzzRead -fuzztime=$(FUZZTIME) ./internal/results
	$(GO) run ./cmd/ilanfuzz -runs 500

# Reproduce every figure and table at paper scale. `-exp all -reps 30
# -jobs 2` took 122 to 169 s of wall time and 236 to 330 s of CPU
# (user+sys) on a shared 2-vCPU host, depending on the host's load.
figures:
	$(GO) run ./cmd/ilanexp -exp all -reps 30

# Quick end-to-end smoke: reduced scale, every experiment.
smoke:
	$(GO) run ./cmd/ilanexp -exp all -reps 2 -class test -q

clean:
	rm -f cover.out
