# aggcache build targets. Standard library only; no external deps.

GO ?= go

.PHONY: all build ignore-guard vet test race race-par cluster churn gossip bench bench-json bench-gate bench-e2e loadtest metrics-smoke rolling-smoke gossip-smoke trace-smoke profile chaos experiments examples fuzz clean

all: build vet test

build:
	$(GO) build ./...

# Fail if .gitignore hides Go source: no ignored *.go file in the tree
# (git ls-files --others --ignored), and no package directory in which a
# new one would be ignored.
ignore-guard:
	sh ./scripts/check_ignored_go.sh

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Focused race pass over the deliberately concurrent code: the parallel
# sweep engine, the memoized workload cache, the pipelined fsnet serving
# path (mux client, sharded server, staging coalescer), and the
# concurrency-safe interner.
race-par:
	$(GO) test -race -run 'Parallel|RunCells|Sweep|Workload' ./internal/simulate/ ./internal/experiments/
	$(GO) test -race -run 'Pipelined|Concurrent|FlightGroup|SyncInterner|Interleaved|Chaos' ./internal/fsnet/ ./internal/trace/

# Cluster peer tier under the race detector: the 3-node in-process
# harness (correct groups, peer-death failover, mirror absorption,
# forward coalescing), the ring property tests, and the clustered
# aggserve/aggbench wiring.
cluster:
	$(GO) test -race -run 'TestCluster|TestRing|TestMirror' ./internal/cluster/ ./internal/fsnet/
	$(GO) test -race -run 'TestRunCluster|TestRunLoadCluster' ./cmd/aggserve/ ./cmd/aggbench/

# Elastic membership under the race detector: live view updates, the
# kill/rejoin/drain churn harness, hinted handoff, the drain handoff
# protocol, and the aggserve/aggbench churn surfaces (DESIGN.md §13).
churn:
	$(GO) test -race -run 'TestMembership|TestClusterChurn|TestHint|TestParsePeersFile' ./internal/cluster/
	$(GO) test -race -run 'TestHandoff|TestExportGroups' ./internal/fsnet/
	$(GO) test -race -run 'TestRunClusterDrainEndpoints|TestRunPeersFileReload|TestRunLoadChurn' ./cmd/aggserve/ ./cmd/aggbench/

# Gossip view dissemination under the race detector: the wire-level
# view frames and piggybacked hints, the cluster-side exchange and drain
# goodbye, and the deterministic partition/convergence harness
# (DESIGN.md §15).
gossip:
	$(GO) test -race -run 'TestView|TestHintPiggyback|TestHintDedup' ./internal/fsnet/
	$(GO) test -race -run 'TestApplyView|TestViewPullPushBetween|TestDrainGoodbye|TestViewHintHook|TestViewExchangeRespects' ./internal/cluster/
	$(GO) test -race ./internal/gossip/

# Machine-readable baseline for the key hot-path and sweep benchmarks
# (ns/op, B/op, allocs/op, custom metrics). Commit the refreshed file when
# a perf change moves the numbers on purpose.
bench-json:
	{ $(GO) test -run '^$$' -bench 'BenchmarkAccess|BenchmarkTrackerObserve|BenchmarkSuccessorEntropyK1' -benchmem . ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkClientSweep|BenchmarkServerSweep' -benchmem -benchtime 2x ./internal/simulate/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkOpenLoopback$$|BenchmarkOpenPipelined|BenchmarkOpenRoutedLocal' -benchmem ./internal/fsnet/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkOpenForwarded' -benchmem ./internal/cluster/ ; \
	  $(GO) run ./cmd/aggbench -conns 8 -workers 8 -opens 4000 -rtt 2ms -gobench ; \
	  $(GO) run ./cmd/aggbench -cluster 1 -conns 9 -workers 4 -opens 4000 -gobench ; \
	  $(GO) run ./cmd/aggbench -cluster 3 -conns 9 -workers 4 -opens 4000 -gobench ; } \
	| $(GO) run ./cmd/benchjson > BENCH_BASELINE.json
	@echo wrote BENCH_BASELINE.json

# Allocation-regression gate: re-run the fsnet hot-path and cluster
# forward-path benches and fail if allocs/op regressed >20% against the
# committed BENCH_BASELINE.json (ns/op is reported but not gated; see
# scripts/bench_gate.sh).
bench-gate:
	sh ./scripts/bench_gate.sh

# The repository benchmark (BENCHMARK.json, benchmark/): its own tests,
# then one short cluster3 run through the same command the driver uses.
# A smoke — the measured run is `bash benchmark/run.sh --workload all`.
bench-e2e:
	cd benchmark && $(GO) test ./...
	bash benchmark/run.sh --workload cluster3 --seconds 1

# Load-generator comparison over a simulated 2ms-RTT network: 8
# connections x 8 pipelining goroutines vs the lock-step baseline of one
# request in flight per connection (-workers 1). The throughput ratio is
# the headline speedup of DESIGN.md §10.
loadtest:
	$(GO) run ./cmd/aggbench -conns 8 -workers 8 -opens 4000 -rtt 2ms
	$(GO) run ./cmd/aggbench -conns 8 -workers 1 -opens 4000 -rtt 2ms
	$(GO) run ./cmd/aggbench -cluster 1 -conns 9 -workers 4 -opens 4000
	$(GO) run ./cmd/aggbench -cluster 3 -conns 9 -workers 4 -opens 4000

# End-to-end observability smoke: boot an aggserve, drive load with
# aggbench, scrape /metrics, and validate the exposition with the strict
# parser in internal/obs (DESIGN.md §12).
metrics-smoke:
	sh ./scripts/metrics_smoke.sh

# Rolling-restart smoke: boot a 3-node aggserve cluster, drain one node
# over HTTP while aggbench drives load, and verify readiness flips with
# zero failed opens (DESIGN.md §13).
rolling-smoke:
	sh ./scripts/rolling_restart_smoke.sh

# Gossip convergence smoke: boot a 3-node aggserve cluster, POST /reload
# on exactly one node, and verify gossip alone converges every node's
# epoch; then drain a node and verify the goodbye push shrinks both
# survivors' views with no operator reload (DESIGN.md §15).
gossip-smoke:
	sh ./scripts/gossip_smoke.sh

# Distributed-tracing smoke: boot a 3-node aggserve cluster with head
# sampling forced on, drive load, and verify the fleet scraper stitches
# a >= 2-node trace, /trace/<id> resolves it, and /metrics carries
# exemplars (DESIGN.md §16).
trace-smoke:
	sh ./scripts/trace_smoke.sh

# Profile the headline claims experiment and print the hottest frames.
# Leaves cpu.pprof and mem.pprof behind for interactive `go tool pprof`.
profile:
	$(GO) run ./cmd/experiments -fig claims -opens 120000 -seed 1 \
		-cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	$(GO) tool pprof -top -nodecount 15 cpu.pprof
	$(GO) tool pprof -top -nodecount 15 -sample_index=alloc_space mem.pprof

# Fault-injection chaos suite (client x server under deterministic faults),
# always with the race detector.
chaos:
	$(GO) test -race -run 'TestChaos' -v ./internal/fsnet/

# Regenerate every paper figure at full scale (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/experiments -fig all -opens 120000 -seed 1

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/servercache
	$(GO) run ./examples/netgroup
	$(GO) run ./examples/predictability
	$(GO) run ./examples/grouping-apps

# Short fuzzing pass over the wire and trace codecs.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzParseOpenRequest -fuzztime=30s ./internal/fsnet/
	$(GO) test -run=^$$ -fuzz=FuzzReadBinary -fuzztime=30s ./internal/trace/
	$(GO) test -run=^$$ -fuzz=FuzzRingOwner -fuzztime=30s ./internal/cluster/

clean:
	$(GO) clean ./...
