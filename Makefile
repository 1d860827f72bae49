# aggcache build targets. Standard library only; no external deps.

GO ?= go

.PHONY: all build ignore-guard lint-dead vet test race bench bench-json bench-e2e loadtest fleet-smoke experiments examples fuzz clean

all: build vet test

build:
	$(GO) build ./...

# Fail if .gitignore hides Go source: no ignored *.go file in the tree
# (git ls-files --others --ignored), and no package directory in which a
# new one would be ignored.
ignore-guard:
	sh ./scripts/check_ignored_go.sh

# Deleted concepts stay deleted: the LRU placement primitives have one
# caller, cache.GroupLRU (PR 18), and the fsnet v1/v2 serving paths (PR 15),
# aggbench's second measurement stack (PR 17) and the client's copy-out
# path (PR 20: Open returns immutable cache storage) are gone; so are the
# server's store-staging coalescer (fsnet no longer uses singleflight), the
# client's reconnect scrap recycling and the second optional router
# interface (PR 21), and the slab-and-slice forward — the client call that
# copied a group out of its frames, the unexported container it copied from
# and the write decoder that materialised a path string (PR 22: a group
# reply is one fsnet.Group end to end; the mirror's member-first slice went
# with it, but `led` is too short a word to guard), and hinted handoff's
# second queue — the per-dead-peer table, its replay, its knob and its four
# counters (PR 23: the history a node owes an owner waits on the peer
# client's backlog and nowhere else), and the client's two silent history
# guards — Open and FetchGroup each dropped the newest access at the bound;
# every access now goes through appendPending, which sheds the oldest and
# counts it — with the protocol generation whose replies carried no tags
# (PR 24). Test files may name them; other Go source may not.
# So are the map-indexed LRU and LFU: residency is a FileID slot table
# into a pointer-free node slab. So are CLOCK, 2Q and MQ, deleted on
# purpose (ARC beat all three in every xbakeoff cell), and container/list
# in internal/cache: ARC is four of the package's dense LRUs.
lint-dead:
	@! grep -rnE 'InsertHead\(|InsertTail\(|EvictVictim' --include='*.go' --exclude='*_test.go' . | grep -v '^\./internal/cache/'
	@! grep -rnE 'MaxProtocol|serveV1|callV1|writeGobench|writeJSON|OpenInto|freeData|setData\(' --include='*.go' --exclude='*_test.go' .
	@! grep -rnE 'takeCallScrap|takeOrphanScrap|storeScrap|scrapCalls|TracedRouter|troute' --include='*.go' --exclude='*_test.go' .
	@! grep -rn 'singleflight' --include='*.go' --exclude='*_test.go' internal/fsnet
	@! grep -rnE 'OpenGroup|chunkGroup|decodeWriteRequest' --include='*.go' --exclude='*_test.go' .
	@! grep -rnE 'hintTable|stageHints|replayHints|HintCapacity|HintsQueued|HintsReplayed|HintsDropped|HintDepth' --include='*.go' --exclude='*_test.go' .
	@! grep -rnE 'len\(c\.pending\) < maxStatPaths|protocolVersion = 3' --include='*.go' --exclude='*_test.go' .
	@! grep -rnE 'map\[trace\.FileID\]\*(lruNode|lfuNode)' --include='*.go' --exclude='*_test.go' .
	@! grep -rnE 'NewCLOCK|NewTwoQ|NewMQ|PolicyCLOCK|PolicyMQ|PolicyTwoQ|BaselineCLOCK|BaselineMQ|BaselineTwoQ' --include='*.go' --exclude='*_test.go' .
	@! grep -rn '"container/list"' --include='*.go' --exclude='*_test.go' internal/cache

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable baseline for the key hot-path and sweep benchmarks
# (ns/op, B/op, allocs/op, custom metrics). Commit the refreshed file when
# a perf change moves the numbers on purpose.
bench-json:
	{ $(GO) test -run '^$$' -bench 'BenchmarkAccess|BenchmarkTrackerObserve|BenchmarkSuccessorEntropyK1' -benchmem . ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkClientSweep|BenchmarkServerSweep' -benchmem -benchtime 2x ./internal/simulate/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkOpenLoopback$$|BenchmarkOpenPipelined|BenchmarkOpenRoutedLocal' -benchmem ./internal/fsnet/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkOpenForwarded' -benchmem ./internal/cluster/ ; } \
	| $(GO) run ./cmd/benchjson > BENCH_BASELINE.json
	@echo wrote BENCH_BASELINE.json

# The repository benchmark (BENCHMARK.json, benchmark/): its own tests,
# then one short client_hot, cluster3 and sim_sweep run each through the
# command BENCHMARK.json declares. client_hot is the workload whose set-up
# is mostly trace synthesis. sim_sweep's warm-up is a differential check of
# the simulator: RunClient at g = 1 and FilterLRU against an independent
# container/list LRU at every capacity on every profile. A smoke — the
# measured run is `bash benchmark/run.sh --workload all`.
bench-e2e:
	cd benchmark && $(GO) test ./...
	bash benchmark/run.sh --workload client_hot --seconds 1
	bash benchmark/run.sh --workload cluster3 --seconds 1
	bash benchmark/run.sh --workload sim_sweep --seconds 1

# Human-run comparison over a simulated 2ms-RTT network: 8 connections
# x 8 pipelining goroutines vs the lock-step baseline of one request in
# flight per connection (-workers 1). The throughput ratio is the
# latency-hiding claim of DESIGN.md §10; nothing gates on it.
loadtest:
	$(GO) run ./cmd/aggbench -conns 8 -workers 8 -opens 4000 -rtt 2ms
	$(GO) run ./cmd/aggbench -conns 8 -workers 1 -opens 4000 -rtt 2ms

# The one real-process deployment check: build aggserve and aggbench,
# boot a 3-node cluster, and walk it through readiness, a verified load
# run, the live /metrics exposition, fleet-stitched traces, a one-node
# reload spread by gossip, and a drain under load (DESIGN.md §12, §13,
# §15, §16). Every in-process race test is `make race`.
fleet-smoke:
	sh ./scripts/fleet_smoke.sh

# Regenerate every paper figure at full scale (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/experiments -fig all -opens 120000 -seed 1

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/servercache
	$(GO) run ./examples/netgroup
	$(GO) run ./examples/predictability
	$(GO) run ./examples/grouping-apps

# Short fuzzing pass over every decoder the serving path runs, the trace
# codecs, the ring, the group placement rule against its model and ARC
# against its reference, ten seconds a target; CI calls this target.
fuzz:
	for t in FuzzParseOpenRequest FuzzMemberChunkView FuzzDecodeGroupEnd FuzzDecodeHello FuzzDecodeViewMsg FuzzDecodeTraceCtx FuzzDecodeHandoffRequest FuzzDecodeWriteRequest FuzzDecodeWriteOK FuzzDecodeErrorResponse; do \
		$(GO) test -run='^$$' -fuzz="^$$t$$" -fuzztime=10s ./internal/fsnet/ || exit 1; \
	done
	for t in FuzzReadBinary FuzzReadText FuzzReadDFSTrace; do \
		$(GO) test -run='^$$' -fuzz="^$$t$$" -fuzztime=10s ./internal/trace/ || exit 1; \
	done
	$(GO) test -run='^$$' -fuzz='^FuzzRingOwner$$' -fuzztime=10s ./internal/cluster/
	$(GO) test -run='^$$' -fuzz='^FuzzGroupLRU$$' -fuzztime=10s ./internal/cache/
	$(GO) test -run='^$$' -fuzz='^FuzzARC$$' -fuzztime=10s ./internal/cache/

clean:
	$(GO) clean ./...
