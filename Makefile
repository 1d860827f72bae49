# aggcache build targets. Standard library only; no external deps.

GO ?= go

.PHONY: all build ignore-guard lint-dead fmt-check vet test race mux-race stage-race bench bench-e2e fleet-smoke experiments examples fuzz clean

all: build vet test

build:
	$(GO) build ./...

# Fail if .gitignore hides Go source: no ignored *.go file in the tree
# (git ls-files --others --ignored), and no package directory in which a
# new one would be ignored.
ignore-guard:
	sh ./scripts/check_ignored_go.sh

# Deleted concepts stay deleted: test files may name them, other Go source
# may not. One line per guarded group, in the order of the greps below:
#   list primitives outside internal/cache: GroupLRU is the one place the placement rule is written.
#   older protocols, the second measuring stack, copy-out Open: one protocol; Open returns immutable storage.
#   reconnect scrap, traced router: the scrap never ran on the ruler; there is one router interface.
#   singleflight: the staging coalescer fired once in 38 428 groups, and no forward is left to coalesce.
#   per-connection staging: a server keeps one unstaged open, and every aggMu section finishes it first.
#   the forward hop and its relay, backlog and series: clients send each miss to its owner.
#   the server's shadow of the client's LRU: a client reports what it holds, across connections.
#   mux writer and reply-writer goroutines: requests and replies leave on the goroutine that made them.
#   assembled groups, string-materialising write decoder: a reply is staged on its connection's writer.
#   hinted handoff's second queue: history waits in the client's history log and nowhere else.
#   silent history guards, the per-request backlog, protocols 3 and 7: one history log, a cursor per link; a link owed
#   past the bound is sent the newest entries with the gap flag, counted; chunks carry tags; opens carry the flag.
#   map-indexed LRU and LFU: residency is a FileID slot table into a pointer-free slab.
#   CLOCK, 2Q, MQ: ARC beat all three in every xbakeoff cell.
#   container/list in internal/cache: ARC is four of the package's dense LRUs.
#   format sniffing in the commands: trace.NewScanner tells text from binary on any reader.
#   a command's own peeker: the same.
#   the adaptive group-size controller: the link cut beat it on fetches in every cell of three of four xprune profiles.
#   delay harness, go-bench baseline stack, Client.TTFB: no measuring path outside benchmark/ that nothing reads.
#   the hot-group mirror: a remotely owned open is answered by its owner.
#   second routing verb, wireOrder, second sweep pool, ring and fanout knobs: one verb, one pool, no knob only tests set.
#   a churn conductor in aggbench: a drain under load is checked in process and by fleet-smoke.
#   node-to-node epoch hints: views move between nodes only by exchange.
#   the N-level simulator, breaker knobs, gossip's epoch series: RunServer is the model; constants; one series.
#   per-connection workers and InlineRouter: no open waits on a peer, so the read loop serves every request.
#   the mux's reply map and watchdog: replies come in request order; a timeout is the connection's deadline.
#   the mux's reader goroutine: the call at the head of the queue reads its own reply.
#   time.AfterFunc in fsnet: no timer per call or per connection.
#   pooled, reference-counted group replies: a reply has one owner at a time.
#   frame and scratch pools: a frame's bytes belong to the connection that reads them.
#   ServeGroup: ServeFrom builds first and leaves the learning owed unless it could change the group.
#   sync.Pool, spares and a second set of counts in fsnet: ClientStats reads the scraped counters.
#   the call pool: a call belongs to its connection, which recycles it.
#   single-list victim primitives: a GroupLRU victim names its list.
#   the drain handoff: a drain is a view change; the group transfer bought less than the ruler resolves.
#   the simulator's other two-level loops: RunServer is RunServerMulti with one client.
#   BuildGroup: a caller builds into a buffer it keeps (AppendGroup).
#   map-keyed entropy sums: one successor-entropy engine, whose sums visit conditions in id order and repeat bit for bit.
#   heat ranked by sorting a copied count map: Tracker.Hottest is the one ranking, CompareHeat its one comparator.
#   trace filters and an interner copy nothing called: ByOp and SplitByClient are the trace's filters.
lint-dead:
	@! grep -rnE 'InsertHead\(|InsertTail\(|EvictVictim' --include='*.go' --exclude='*_test.go' . | grep -v '^\./internal/cache/'
	@! grep -rnE 'MaxProtocol|serveV1|callV1|writeGobench|writeJSON|OpenInto|freeData|setData\(' --include='*.go' --exclude='*_test.go' .
	@! grep -rnE 'takeCallScrap|takeOrphanScrap|storeScrap|scrapCalls|TracedRouter|troute' --include='*.go' --exclude='*_test.go' .
	@! grep -rn 'singleflight' --include='*.go' --exclude='*_test.go' .
	@! grep -rn 'stageServed(' --include='*.go' --exclude='*_test.go' .
	@! grep -rnE 'FetchGroup\(|NoteAccess\(|Backlog\(\)|flights|cluster_peer_backlog|cluster_forwarded_opens|cluster_coalesced_forwards|shareForward' --include='*.go' --exclude='*_test.go' .
	@! grep -rnE 'newShadow|\*shadow\b|sh\.note\(|shadow\.install|maxShadowCapacity|openUnvalidated|novalidate|ShadowResets|shadow_resets' --include='*.go' --exclude='*_test.go' .
	@! grep -rnE 'func \(m \*muxConn\) writer|m\.wake|rw\.wake|drainAndStop|func \(rw \*replyWriter\) loop' --include='*.go' --exclude='*_test.go' .
	@! grep -rnE 'OpenGroup|chunkGroup|decodeWriteRequest' --include='*.go' --exclude='*_test.go' .
	@! grep -rnE 'hintTable|stageHints|replayHints|HintCapacity|HintsQueued|HintsReplayed|HintsDropped|HintDepth' --include='*.go' --exclude='*_test.go' .
	@! grep -rnE 'c\.pending|appendPending|claimPending|restorePending|call\.claimed|protocolVersion = [37]$$' --include='*.go' --exclude='*_test.go' .
	@! grep -rnE 'map\[trace\.FileID\]\*(lruNode|lfuNode)' --include='*.go' --exclude='*_test.go' .
	@! grep -rnE 'NewCLOCK|NewTwoQ|NewMQ|PolicyCLOCK|PolicyMQ|PolicyTwoQ|BaselineCLOCK|BaselineMQ|BaselineTwoQ' --include='*.go' --exclude='*_test.go' .
	@! grep -rn '"container/list"' --include='*.go' --exclude='*_test.go' internal/cache
	@! grep -rn 'ErrBadMagic' --include='*.go' --exclude='*_test.go' cmd
	@! grep -rn 'newPeeker' --include='*.go' --exclude='*_test.go' .
	@! grep -rnE 'Adaptive:|\.Adaptive\b|MinGroupSize|MaxGroupSize|CurrentGroupSize|growGroup|shrinkGroup|adaptWindow|SetSize\(' --include='*.go' --exclude='*_test.go' .
	@! grep -rnE 'delayConn|delayWheel|sharedWheel|getDelayBuf|benchparse|benchjson|TTFB\(\)' --include='*.go' --exclude='*_test.go' .
	@! grep -rnE 'newMirror|purgeOwner|mirMu|MirrorTTL|MirrorGroups|MirrorRetainedBytes|RetainedBytes\(|cluster_mirror_' --include='*.go' --exclude='*_test.go' .
	@! grep -rnE 'RouteOpenTraced|TryRouteOpen|wireOrder|runParallel|ClientSweepOpt|ServerSweepOpt|ring-replicas|gossip-fanout|Fanout:' --include='*.go' --exclude='*_test.go' .
	@! grep -rniE 'churn|internal/gossip' --include='*.go' --exclude='*_test.go' cmd/aggbench
	@! grep -rnE 'NoteViewEpoch|OnViewHint|NoteEpoch\(|transientClient|hintSent|hintPulls|staleHints|gossip_hint_pulls|gossip_stale_hints' --include='*.go' --exclude='*_test.go' .
	@! grep -rnE 'internal/multilevel|SimulateHierarchy|HierarchyConfig|DisablePiggyback|FailureThreshold|DownDuration|PeerTimeout|gossip_view_epoch' --include='*.go' --exclude='*_test.go' .
	@! grep -rnE 'InlineRouter|errRouteBlocks|connWorkers|maxServerPipeline|iroute|inlineOpens|repull' --include='*.go' --exclude='*_test.go' .
	@! grep -rnE 'func \(m \*muxConn\) expire|m\.watching|map\[uint64\]\*muxCall' --include='*.go' --exclude='*_test.go' .
	@! grep -rnE 'func \(m \*muxConn\) reader|go m\.reader\(\)' --include='*.go' --exclude='*_test.go' .
	@! grep -rn 'time\.AfterFunc' --include='*.go' --exclude='*_test.go' internal/fsnet
	@! grep -rnE 'func \(g \*Group\) Retain|groupPool|scribbleReleased|LiveGroups|pendingFree|freePending|AppendBuildGroup' --include='*.go' --exclude='*_test.go' .
	@! grep -rnE 'frameBufPool|boxPool|getFrameBuf|putFrameBuf|getEncodeBuf|openScratchPool|putChunks' --include='*.go' --exclude='*_test.go' .
	@! grep -rn 'ServeGroup(' --include='*.go' --exclude='*_test.go' .
	@! grep -rnE 'sync\.Pool|c\.spares|c\.stats\.' --include='*.go' --exclude='*_test.go' internal/fsnet
	@! grep -rnE 'muxCallPool|keepSpare' --include='*.go' --exclude='*_test.go' .
	@! grep -rn 'evictVictim' --include='*.go' --exclude='*_test.go' .
	@! grep -rnE 'msgHandoff|handoffRequest|HandoffGroup|ExportGroups|GroupSource|GroupsSent|drainSent|handoff_groups|drain_groups' --include='*.go' --exclude='*_test.go' .
	@! grep -rnE 'runGroupFilter|groupServer|lruFilter|groupClient' --include='*.go' --exclude='*_test.go' .
	@! grep -rn 'BuildGroup(' --include='*.go' --exclude='*_test.go' .
	@! grep -rnE 'conditionalEntropy\(|entropy\.Distribution|func Distribution\(|map\[string\]\*dist' --include='*.go' --exclude='*_test.go' .
	@! grep -rnE 'seedsByHeat|\.Counts\(\)|\) Counts\(\)' --include='*.go' --exclude='*_test.go' .
	@! grep -rnE '\bByClient\(|\bByUID\(|\) Clone\(\) \*Interner|Paths\.Clone\(\)' --include='*.go' --exclude='*_test.go' .

# Fail if any tracked Go file, benchmark/ included, is not gofmt-clean.
fmt-check:
	@out=$$(git ls-files '*.go' | xargs gofmt -l 2>&1); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The client mux's orderings, timeouts and idle close, ten times over under
# the race detector: the call at the head of the queue reads its own reply
# and hands the read role on, so these are the tests a lost or doubled
# hand-off, an install out of arrival order or a deadline left unarmed
# fails, some of them only now and then; the two that cut a group reply
# short, at the client mid-stream and at a dead reply writer; and five
# verbs in flight at once, each of which must decode its reply before the
# next call reads into the connection's reply buffer; and the two that
# show a server learns each open's history in request order although it
# learns it after the reply, in a pipelined burst and when the connection
# ends with learning still owed; and the two that show a client's counts
# and calls have one owner each: snapshots taken under concurrent opens
# keep their bounds and equal the scraped series, and a connection
# recycles its own calls through collections; and the one that shows a
# pipelined client keeps what an install evicts while replies that may
# vouch for it are in flight, so validation stays near lock step.
mux-race:
	$(GO) test -race -count 10 -run '^(TestPipelinedValidationStaysNearLockStep|TestPipelinedVerbsDecodeTheirOwnReplies|TestRequestsServedInRequestOrder|TestRepliesInstallInArrivalOrder|TestRepliesOutOfOrderPoison|TestMidStreamCutFailsOnlyThatCall|TestClientTimeoutFailsPipelinedCalls|TestClientTimeoutBoundsStalledRequest|TestClientWatchdogRearmsAfterIdle|TestChaosClientSideBlackholes|TestServerIdleTimeoutDropsSilentClients|TestClientStartsNoGoroutine|TestClientCloseMidGroup|TestReplyDroppedUnwrittenReleasesGroup|TestPipelinedOpensLearnInRequestOrder|TestClosedConnectionLearnsOwedHistory|TestConcurrentClientStatsSnapshot|TestCallsSurviveCollection)$$' ./internal/fsnet

# Staging, ten times over under the race detector: a server rebuilds its
# ownership table under aggMu while opens run on two connections and its
# view moves; and the replays whose counts hold only while a server
# finishes every answered open before it serves the next, on any
# connection: the ring replay on 2, 3 and 5 nodes, whose client sequence
# is a one-member fleet's and whose peer stage hints land before the next
# open, two clients matching simulate.RunServerMulti open by open, and two
# rings replaying one two-client walk alike; and the stage hints
# themselves: a receiver stages only what it owns, and a node's hints
# reach their owners, are shed past the bound or at an open breaker, and
# stop with the peer.
stage-race:
	$(GO) test -race -count 10 -run '^(TestStagingOwnershipFollowsView|TestSoloViewStagesAsNoView|TestRingReplayStagesOwnedFiles|TestTwoClientsMatchRunServerMulti|TestRingReplayTwoClientsIsReproducible|TestPeerHintStagesOnlyOwnedFiles)$$' ./internal/fsnet
	$(GO) test -race -count 10 -run '^(TestPeerHintSeriesMove|TestPeerHintSenderStopsWithThePeer)$$' ./internal/cluster

bench:
	$(GO) test -bench=. -benchmem ./...

# The repository benchmark (BENCHMARK.json, benchmark/): its own tests,
# then one short run of each of its four workloads through the command
# BENCHMARK.json declares. client_hot is the workload whose set-up is
# mostly trace synthesis; server_rw is the one the server cache's staging
# rule moves (its server_miss_rate). sim_sweep's warm-up is a differential
# check of the simulator: RunClient at g = 1 and FilterLRU against an
# independent container/list LRU at every capacity on every profile. A
# smoke — the measured run is `bash benchmark/run.sh --workload all`.
bench-e2e:
	cd benchmark && $(GO) test ./...
	bash benchmark/run.sh --workload client_hot --seconds 1
	bash benchmark/run.sh --workload server_rw --seconds 1
	bash benchmark/run.sh --workload cluster3 --seconds 1
	bash benchmark/run.sh --workload sim_sweep --seconds 1

# The one real-process deployment check: build aggserve and aggbench,
# boot a 3-node cluster, and walk it through readiness, a verified load
# run, the live /metrics exposition, fleet-stitched traces, a one-node
# reload spread by gossip, and a drain under load (DESIGN.md §5, §7).
# Every in-process race test is `make race`.
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
# codecs, the learned-metadata snapshot loader, the ring, the group placement rule against its model, ARC
# against its reference and the group builder at share 0 against the
# builder from before the link cut, ten seconds a target; CI calls this
# target.
fuzz:
	for t in FuzzParseOpenRequest FuzzMemberChunkView FuzzDecodeGroupEnd FuzzDecodeHello FuzzDecodeViewMsg FuzzDecodeTraceCtx FuzzDecodeWriteRequest FuzzDecodeWriteOK FuzzDecodeErrorResponse; do \
		$(GO) test -run='^$$' -fuzz="^$$t$$" -fuzztime=10s ./internal/fsnet/ || exit 1; \
	done
	for t in FuzzReadBinary FuzzReadText FuzzReadDFSTrace; do \
		$(GO) test -run='^$$' -fuzz="^$$t$$" -fuzztime=10s ./internal/trace/ || exit 1; \
	done
	$(GO) test -run='^$$' -fuzz='^FuzzLoadTracker$$' -fuzztime=10s ./internal/successor/
	$(GO) test -run='^$$' -fuzz='^FuzzRingOwner$$' -fuzztime=10s ./internal/cluster/
	$(GO) test -run='^$$' -fuzz='^FuzzGroupLRU$$' -fuzztime=10s ./internal/cache/
	$(GO) test -run='^$$' -fuzz='^FuzzARC$$' -fuzztime=10s ./internal/cache/
	$(GO) test -run='^$$' -fuzz='^FuzzBuilder$$' -fuzztime=10s ./internal/group/

clean:
	$(GO) clean ./...
