# Tier-1 verification gate (see ROADMAP.md): every PR must leave `make ci`
# green. `make fmt` fails when any Go file is not gofmt-formatted; `make
# race` additionally race-tests the concurrent packages and `make cross`
# vets and builds for arm64, where internal/tensor has no assembly and runs
# its pure-Go kernels; `make bench` is the quick no-regression smoke for
# the sim hot path.

GO ?= go

.PHONY: ci fmt vet build test race cross fuzz-smoke loc bench bench-nn bench-sim bench-drl bench-infer bench-obs bench-train bench-search trace-smoke profile-smoke

ci: fmt vet build test race cross

fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/drl/... ./internal/sim/... ./internal/obs/... ./internal/mcts/... ./internal/exp/... ./internal/rl/... ./internal/infer/...

cross:
	GOARCH=arm64 $(GO) vet ./... && GOARCH=arm64 $(GO) build ./...

# Short fuzzes, bit-for-bit: the AVX2 primitives against their Go twins,
# the fused conv kernels against the lowered im2col/GEMM oracle, the
# greedy score table against the brute Algorithm 1 rescan, and the ring
# and mesh simulators (random designs, configs, traffic and FailLoop
# schedules) against the dense reference walks. The committed seed corpora
# live in internal/tensor/testdata/fuzz, internal/rl/testdata/fuzz and
# internal/sim/testdata/fuzz.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzSIMDMatchesGeneric -fuzztime 5s ./internal/tensor/
	$(GO) test -run '^$$' -fuzz FuzzConvFusedMatchesLowered -fuzztime 5s ./internal/tensor/
	$(GO) test -run '^$$' -fuzz FuzzScoreTableMatchesBrute -fuzztime 5s ./internal/rl/
	$(GO) test -run '^$$' -fuzz FuzzRingMatchesReference -fuzztime 5s ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzMeshMatchesReference -fuzztime 5s ./internal/sim/

# Non-test Go line count outside perfbench/, the size ROADMAP tracks.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' | xargs cat | wc -l

bench:
	$(GO) test -bench . -benchmem -benchtime 1x -run '^$$' .

# Quick kernel-iteration loop for the DNN hot path (fused padded-plane
# convs, scratch arenas): the whole-network DNN micro-benchmarks, with
# allocation counts, then the fused conv kernels at the default 8×8 net's
# layer shapes on the AVX2 primitives (simd) and on their Go twins
# (generic). Before/after numbers for PR 2 live in BENCH_PR2.json.
bench-nn:
	$(GO) test -bench 'BenchmarkDNN' -benchmem -run '^$$' .
	$(GO) test -bench 'BenchmarkConvFused' -benchmem -run '^$$' ./internal/tensor/

# Quick iteration loop for the simulator hot path (zero-alloc Step/Run:
# flit pools, head-index queues, the ring's rotating frame and arrival
# calendar, the mesh's flat router arrays). Allocation counts are the
# regression signal — internal/sim's AllocsPerRun tests pin them at zero
# per steady-state cycle — and the SimRun matrix covers 8×8 at 0.01, 0.02
# and 0.1 plus perfbench sim-sweep's 10×10 REC-ring and Mesh-2 shapes at
# 0.02 and 0.25. internal/sim's BenchmarkSimRunDense runs the same rows on
# the test-only dense reference walks, the before column.
bench-sim:
	$(GO) test -bench 'BenchmarkRingStep|BenchmarkMeshStep|BenchmarkSimRun' -benchmem -run '^$$' .
	$(GO) test -bench 'BenchmarkSimRunDense' -benchmem -run '^$$' ./internal/sim/

# Quick iteration loop for the DRL episode hot path (incremental greedy
# score cache, episode arenas, cached fingerprints). Allocation counts are
# the regression signal — internal/rl's and internal/drl's AllocsPerRun
# tests pin the greedy step, state encoding, and fingerprint at zero.
# Before/after numbers for PR 4 live in BENCH_PR4.json.
# BenchmarkGreedyImprove times the search's completion phase on a recycled
# environment.
bench-drl:
	$(GO) test -bench 'BenchmarkGreedyComplete|BenchmarkGreedyImprove|BenchmarkFingerprint' -benchmem -run '^$$' .
	$(GO) test -bench 'BenchmarkDRLEpisode' -benchmem -run '^$$' ./internal/drl/

# Quick iteration loop for the batched-inference service (internal/infer
# broker, nn.ForwardBatch in evaluation mode, fingerprint-keyed evaluation
# cache): BenchmarkDNNForwardBatch per-sample at B=1/8/32 against
# single-sample BenchmarkDNNForward, and broker-routed episodes.
# Before/after numbers for PR 5 live in BENCH_PR5.json.
bench-infer:
	$(GO) test -bench 'BenchmarkDNNForwardBatch|BenchmarkDNNForward$$' -benchmem -run '^$$' .
	$(GO) test -bench 'BenchmarkDRLEpisode' -benchmem -run '^$$' ./internal/drl/

# Quick iteration loop for the batched trajectory trainer (rl.A2C tiles
# driving nn.ForwardBatch(..., train=true)/BackwardBatch over the fused
# padded-plane conv kernels): sequential-vs-batched A2CAccumulate at H ∈ {8,16,32} on the
# 8×8 and 10×10 nets, plus the end-to-end episode benchmark. The regression
# signals are allocs/op = 0 on the warmed trainer and the seq/batched
# ns/step ratio. Before/after numbers for PR 9 live in BENCH_PR9.json.
bench-train:
	$(GO) test -bench 'BenchmarkA2CAccumulate' -benchmem -run '^$$' ./internal/rl/
	$(GO) test -bench 'BenchmarkDRLEpisode$$' -benchmem -run '^$$' ./internal/drl/

# Quick iteration loop for the multi-threaded search stack (PR 10): the
# lock-striped MCTS tree and chunked parameter server under concurrent
# learner traffic, the fused applyAndFetch round-trip vs the old
# apply+snapshot pair, and the end-to-end thread-scaling rows (Threads ∈
# {1,2,4,8}). The regression signals are the fused/pair ns/update ratio,
# contended_frac on the striped structures vs their whole-lock before
# columns, and flat single-thread episode cost. On a 1-CPU host the
# thread-scaling wall-clock is honestly flat — contended_frac carries the
# story (ROADMAP policy, as PR 3/5). Numbers live in BENCH_PR10.json.
bench-search:
	$(GO) test -bench 'BenchmarkTreeContention' -benchmem -run '^$$' ./internal/mcts/
	$(GO) test -bench 'BenchmarkParamServer' -benchmem -run '^$$' ./internal/drl/
	$(GO) test -bench 'BenchmarkDRLSearchThreads' -benchmem -benchtime 5x -run '^$$' ./internal/drl/

# Tracing-overhead gate (PR 6): traced vs untraced episode and sim-run
# pairs, plus the span/histogram micro-benchmarks. The disabled path must
# stay allocation-free (internal/{sim,rl,drl} alloc tests pin it) and the
# enabled path within a few percent. Before/after numbers live in
# BENCH_PR6.json.
bench-obs:
	$(GO) test -bench 'BenchmarkSimRun$$|BenchmarkSimRunTraced' -benchmem -run '^$$' .
	$(GO) test -bench 'BenchmarkDRLEpisode$$|BenchmarkDRLEpisodeTraced' -benchmem -run '^$$' ./internal/drl/
	$(GO) test -bench 'BenchmarkTraceSpan|BenchmarkHistogram' -benchmem -run '^$$' ./internal/obs/

# End-to-end tracing smoke: run a tiny traced search and a tiny traced
# sweep, then validate the Chrome trace JSON (well-formed, strictly nested
# per track, all expected span kinds present) with cmd/tracecheck.
trace-smoke:
	$(GO) run ./cmd/nocexplore -n 4 -episodes 6 -threads 2 -infer-batch 4 -progress 0 \
		-trace /tmp/routerless-trace-explore.json -manifest /tmp/routerless-manifest.jsonl > /dev/null
	$(GO) run ./cmd/tracecheck -require \
		drl.run,drl.episode,mcts.select,mcts.expand,mcts.backup,infer.submit,infer.queue_wait,infer.batch_assemble,infer.forward_batch \
		/tmp/routerless-trace-explore.json
	$(GO) run ./cmd/nocsim -mesh 4 -rates 0.01,0.02 -warmup 200 -measure 500 \
		-trace /tmp/routerless-trace-sim.json -manifest /tmp/routerless-manifest.jsonl > /dev/null
	$(GO) run ./cmd/tracecheck -require sim.run,sim.warmup,sim.measure,sim.drain,exp.point \
		/tmp/routerless-trace-sim.json

# End-to-end contention-profiling smoke (PR 10): run a threaded search with
# -mutexprofile/-blockprofile and assert both profiles are non-empty and
# parseable (pprof -top symbolizes runtime profiles without the binary).
profile-smoke:
	$(GO) run ./cmd/nocexplore -n 4 -episodes 8 -threads 4 -progress 0 \
		-mutexprofile /tmp/routerless-mutex.pprof -blockprofile /tmp/routerless-block.pprof > /dev/null
	test -s /tmp/routerless-mutex.pprof
	test -s /tmp/routerless-block.pprof
	$(GO) tool pprof -top /tmp/routerless-mutex.pprof > /dev/null
	$(GO) tool pprof -top /tmp/routerless-block.pprof > /dev/null
