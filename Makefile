# Repo verification and benchmarking targets. `make check` is the PR gate:
# build + tests + race on the parallelized packages.

GO ?= go

BENCH ?= Fig9$$|Fig10$$|Fig11$$|Fig12$$|SimEngine$$|SimBuild$$|SweepParallel$$

.PHONY: build test race cancel-repeat portable bench bench-smoke fault-smoke serve-smoke chaos vet lint docs-check check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole tree must stay clean under the race detector: the sweep engine,
# TCP transport, abort/heartbeat machinery and spawn launcher are all
# concurrency-heavy, and races have a habit of hiding in the "safe" packages.
race:
	$(GO) test -race ./...

# The two mid-run cancellation tests, twenty times over on their own (under
# two seconds). They used to cancel from a goroutine polling the cache, which
# a 2-CPU host often did not schedule before the two busy evalAll workers
# finished the ladder, and failed 2 runs in 5; they now cancel from the
# evaluation count itself, and this keeps such a flake from coming back
# unnoticed in a suite run that happens to pass once.
cancel-repeat:
	$(GO) test -count=20 -run 'TestCancelMidLadder$$|TestCancelThenRerunBitIdentical$$' ./internal/experiments

# The portable build of Sqrt3D's grouped sweep: on amd64 its steady loop is
# SSE2 assembly (internal/stencil/sqrt_amd64.s), everywhere else the same
# eight-lane loop in Go. A 386 test run takes the Go loop on an amd64 host
# through both kernel tests, and an arm64 vet keeps the !amd64 files
# compiling.
portable:
	GOARCH=386 $(GO) test ./internal/stencil ./internal/runner
	GOARCH=arm64 $(GO) vet ./internal/stencil

bench:
	$(GO) test -bench '$(BENCH)' -benchmem -run '^$$' .

# One iteration of the optimum benchmarks: exercises the tiered search and
# the bound-pruned exact tier end to end (and keeps both compiling and
# running) in about a second; either fails the target if a query simulates
# every rung of the ladder. The allocation-budget benchmarks fail the
# target when the simulator's per-rank budget grows with scale, the real
# tile loop allocates per point or per message again through either front
# door, the result gather allocates a box-sized buffer again, a sim.Cache
# hit allocates, a small message over the TCP transport costs more than 4
# allocations, a simulation of either schedule (blocking or overlapped) on
# a reused sim.Simulator allocates per tile, or one Sqrt3D block sweep
# allocates (the grouped sweep's root buffers must stay on the stack) on
# either node geometry's rank box, the coarse one at both of its pitches.
# PlanHot keeps the in-process warm-cache tileserve request benchmark
# compiling and running.
bench-smoke:
	$(GO) test -bench 'OptimumTiered$$|OptimumSweep$$|ScaleAllocBudget$$|SimEngine$$|RunnerBlocking$$|RunnerOverlapped$$|Runner2D$$|Gather$$|SimCache$$|StencilBlock$$' -benchmem -benchtime=1x -run '^$$' .
	$(GO) test -bench 'TCPSmallMsgStream$$' -benchtime=1x -run '^$$' ./internal/mp
	$(GO) test -bench 'PlanHot$$' -benchmem -benchtime=1x -run '^$$' ./cmd/tileserve

# Degradation sweep at a fixed seed: exercises the whole fault-injection
# path end to end and fails if degradation is not graceful or the
# retransmit-budget / deadline cross-check disagrees.
fault-smoke:
	$(GO) run ./cmd/tilebench -quick -fault-seed 7 -fault-intensity 1 -deadline fault-sweep

# Planning-service drill over a real process boundary, under the race
# detector: burst past the rate limit (shed 429s, served answers
# bit-identical to the offline CLI), then SIGTERM and drain to exit 0 —
# also when the signal lands the instant the address is announced.
serve-smoke:
	$(GO) test -race -count=1 -run 'TestServeSmoke$$|TestServeSigtermAtStart$$' ./cmd/tileserve

# Self-healing drill over real OS processes, under the race detector: a
# supervised run has its victim rank SIGKILLed three times at distinct
# wavefront phases and must still finish with a grid byte-identical to the
# fault-free baseline, and a run with too small a restart budget must
# converge to the typed budget-exhausted failure (DESIGN.md §13).
chaos:
	$(GO) test -race -count=1 -run 'TestChaosSupervised' ./cmd/tilenode

# Toolchain hygiene: go vet and a gofmt-clean tree (testdata included).
vet:
	$(GO) vet ./...
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then \
		echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi

# Domain invariants: the tilevet analyzer suite (internal/lint) enforces
# the overlap, determinism, reserved-tag and deadline contracts statically
# (DESIGN.md §9). Exit non-zero with file:line diagnostics on violation.
# The same suite also runs in-process from internal/lint's tests, so plain
# `go test ./...` fails on violations too.
lint:
	$(GO) run ./cmd/tilevet .

# Documentation hygiene: every markdown link and anchor resolving
# (cmd/docscheck; offline, external URLs are skipped).
docs-check:
	$(GO) run ./cmd/docscheck .

check: build test race cancel-repeat portable fault-smoke serve-smoke chaos bench-smoke vet lint docs-check
