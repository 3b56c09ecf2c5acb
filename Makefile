GO ?= go

.PHONY: all build vet test race check lint lint-vet bench bench-json bench-transport-json bench-tick-json bench-sim-json chaos

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static-analysis gate: the eight custom cloudfoglint analyzers (DESIGN.md
# §11 and §16) over the whole module with module-wide facts, checked
# against the committed shrink-only baseline and emitting lint.sarif for
# code-scanning UIs; plus gofmt. govulncheck runs when installed and is
# skipped otherwise (the container has no network to fetch it).
lint:
	$(GO) run ./cmd/cloudfoglint -sarif lint.sarif -baseline lint-baseline.json ./...
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping"; fi

# Same analyzers driven through the go command's vet-tool protocol, which
# caches per-package results in the build cache. The binary in bin/ is
# itself cached: it rebuilds only when the linter's sources change.
LINT_SRC := $(wildcard cmd/cloudfoglint/*.go internal/analysis/*.go internal/analysis/*/*.go) go.mod

bin/cloudfoglint: $(LINT_SRC)
	$(GO) build -o $@ ./cmd/cloudfoglint

lint-vet: bin/cloudfoglint
	$(GO) vet -vettool=$(CURDIR)/bin/cloudfoglint ./...

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

# Micro-benchmarks for the shared §3.2 selection engine and its consumers
# (one iteration each: a smoke check, not a measurement run). The root
# package is excluded — its benchmarks are the figure-generation harness.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./internal/...

# Wire-path benchmark regression file: runs the hot-path benchmarks (the
# zero-allocation encoders/readers, the tick fan-out and frame-stream
# loops, and the §3.2 selection paths they feed) with -benchmem at a fixed
# iteration count, and converts the output to BENCH_wirepath.json via
# cmd/benchjson. The file is committed so reviewers can diff allocs/op
# across PRs, and CI uploads it as an artifact. Absolute ns/op varies by
# machine; allocs/op and B/op are the stable regression signal. Every
# benchmark runs five times (five rows per name), so the file carries its
# own run-to-run spread. The three *20k rows are the world costs that must
# follow what changed or is visible, not the 20 000 entities present.
BENCH_WIREPATH = BenchmarkUpdateBatch|BenchmarkWriteMessage|BenchmarkAppendFrame|BenchmarkReadMessage|BenchmarkFrameReader|BenchmarkTickFanout|BenchmarkFrameStream|BenchmarkEncodeInto|BenchmarkDecodeInto|BenchmarkRenderInto|BenchmarkSelectorSelect|BenchmarkCandidateLadder|BenchmarkRank|BenchmarkCheckpoint|BenchmarkStep20k|BenchmarkReplicaView20k|BenchmarkCellKeyframe20k

bench-json:
	$(GO) test -bench='$(BENCH_WIREPATH)' -benchmem -benchtime=2000x -count=5 -run='^$$' \
		./internal/protocol ./internal/fognet ./internal/videocodec \
		./internal/render ./internal/fog ./internal/selection \
		./internal/checkpoint ./internal/virtualworld \
		| $(GO) run ./cmd/benchjson -o BENCH_wirepath.json

# Datagram-transport benchmark regression file, same scheme as bench-json:
# the UDP video hot paths (header append/parse, tracker classification,
# per-frame datagram send and receive) at a fixed iteration count,
# converted to BENCH_transport.json. The acceptance bar is the one the TCP
# wire path set in PR 3: 0 allocs/op in steady state.
BENCH_TRANSPORT = BenchmarkDatagramHeader|BenchmarkTrackerTrack|BenchmarkDatagramSendFrame|BenchmarkDatagramRecvFrame

bench-transport-json:
	$(GO) test -bench='$(BENCH_TRANSPORT)' -benchmem -benchtime=2000x -run='^$$' \
		./internal/transport ./internal/fognet \
		| $(GO) run ./cmd/benchjson -o BENCH_transport.json

# Interest-management (AoI) tick fan-out regression file, same scheme as
# bench-json: the per-cell AoI fan-out and the legacy full-world baseline
# over the same fixtures, plus the grid RegionOf index, converted to
# BENCH_tick.json. Beyond ns/op and allocs/op, each fan-out row carries a
# custom fanoutB/tick metric — the tick's wire egress — which is the
# number the AoI layer exists to bound: flat in world size, linear in
# visible entities (DESIGN.md §14).
BENCH_TICK = BenchmarkAoITickFanout|BenchmarkLegacyTickFanout|BenchmarkRegionOf

bench-tick-json:
	$(GO) test -bench='$(BENCH_TICK)' -benchmem -benchtime=2000x -run='^$$' \
		./internal/fognet ./internal/virtualworld \
		| $(GO) run ./cmd/benchjson -o BENCH_tick.json

# Simulator scale regression file: full seeded deployments at 10k (the
# paper's PeerSim profile), 100k, and 1M players, sequential vs parallel,
# converted to BENCH_sim.json. Each row reports playerticks/s (player-
# subcycle evaluations per wall second) and heapMB/run (the streaming-
# metrics memory bar — RSS must stay O(1) in players, so the 1M row fits CI
# memory). The Par/Seq ratio at one scale is the worker-pool speedup; the
# ≥5× acceptance bar applies on a multi-core runner (on one core the pair
# measures phasing overhead instead). Override the filter to regenerate a
# subset, e.g. CI's 10k/100k-only run:
#   make bench-sim-json BENCH_SIM='BenchmarkSimPlayers10k|BenchmarkSimPlayers100k'
BENCH_SIM = BenchmarkSimPlayers

bench-sim-json:
	$(GO) test -bench='$(BENCH_SIM)' -benchmem -benchtime=1x -timeout 60m -run='^$$' \
		./internal/core \
		| $(GO) run ./cmd/benchjson -o BENCH_sim.json

chaos:
	$(GO) run ./examples/chaos
