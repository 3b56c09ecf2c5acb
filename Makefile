GO ?= go

.PHONY: all build vet test race check lint bench bench-gate chaos

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static-analysis gate: the seven custom cloudfoglint analyzers (DESIGN.md
# §11) over the whole module — the run tier-1's TestTreeClean also makes —
# plus gofmt. govulncheck runs when installed and is skipped otherwise
# (the container has no network to fetch it).
lint:
	$(GO) run ./cmd/cloudfoglint ./...
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping"; fi

test:
	$(GO) test ./...

# The fognet chaos tests exercise heartbeats, eviction, reconnects, and
# player migration under injected faults; they must stay race-clean. The
# timeout is raised above go test's 10m default because the (singly-
# threaded) experiments figure suite runs several times slower under the
# race detector.
race:
	$(GO) test -race -timeout 60m ./...

check: build vet lint test race

# Every Benchmark* function under internal/, one iteration each: a smoke
# check that they still run, not a measurement. The paper's figures are
# not benchmarks: cmd/cloudfogsim runs them, and their full-scale output is
# a golden CI diffs (EXPERIMENTS.md). What is measured and gated is bench/
# (below); what must stay at 0 allocs/op is pinned by the
# *SteadyStateAllocs tests (DESIGN.md §10).
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./internal/...

# The end-to-end benchmark as a gate: check BASE out under .bench_build/,
# run bench/ on it and on this tree, one workload at a time in alternation
# (so a slow minute on the machine lands on both), and fail when an
# end-to-end metric of this tree is outside its BENCHMARK.json bound of
# BASE's (exit 1), or when the benchmark marked a run disturbed and wants
# it taken again (exit 2). About five minutes.
BASE ?= origin/main
BENCH_OUT = $(CURDIR)/.bench_build

bench-gate:
	rm -rf $(BENCH_OUT)/base && git worktree prune
	git worktree add --detach $(BENCH_OUT)/base $(BASE)
	@status=0; for w in stream_hd big_world join_churn sim_fog_50k; do \
		(cd $(BENCH_OUT)/base && bash bench/run.sh -workload $$w -out $(BENCH_OUT)/base-$$w.json) && \
		bash bench/run.sh -workload $$w -out $(BENCH_OUT)/head-$$w.json && \
		bash bench/run.sh -compare $(BENCH_OUT)/base-$$w.json $(BENCH_OUT)/head-$$w.json || status=$$?; \
	done; git worktree remove --force $(BENCH_OUT)/base; exit $$status

chaos:
	$(GO) run ./examples/chaos
