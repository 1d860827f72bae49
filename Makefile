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
# in internal/cache: ARC is four of the package's dense LRUs. So is
# format sniffing in the commands: trace.NewScanner tells text from binary
# on any reader, so no command retries on ErrBadMagic or peeks itself. So
# is the adaptive group-size controller: the link cut
# (core.Config.LinkShare) beat it on fetches in every cell of three of
# four profiles in xprune. So is every measuring path outside benchmark/
# that nothing read: aggbench's delay harness behind -rtt, the
# go-bench baseline stack (cmd/benchjson, internal/benchparse) and the
# client's registry-less TTFB histogram with its Client.TTFB reader. So is
# the cluster's hot-group mirror, with its TTL, its residency stats, its
# three series and fsnet.Group.RetainedBytes, whose one caller it was: a
# remotely owned open is answered by the owner's group or degrades.
# cluster.Config.MirrorCapacity and NodeStats.MirrorHits stay, inert,
# because benchmark/ still names them. So is the second routing verb and
# the lead index it carried: with the mirror gone every reply leads with
# the demanded file, so an InlineRouter has one method, Route, and the
# reply writer sends a group's files in order (no wireOrder). So are
# experiments' copy of the sweep worker pool (simulate.ForEach is the one)
# and the sweeps' Options-less forms; the knobs nobody set — the ring's
# per-node virtual-node count, on which nodes that disagreed silently
# diverged in ownership, and the gossip fanout (one random peer a round);
# and aggbench's churn conductor, a third drain-and-rejoin check beside
# TestClusterDrainUnderLoadRejoinsByGossip and fleet-smoke: aggbench
# neither names churn nor imports internal/gossip. So is the second
# two-level simulator: internal/multilevel ran simulate.RunServer's model
# again, generalised to N levels no caller used, so the §4.3 hierarchy is
# RunServer priced by ServerResult.MeanLatency and the façade's
# SimulateHierarchy names went with it. So are the knobs only tests set:
# the breaker's threshold, cooldown and forward timeout are unexported
# constants, and the client always piggybacks its history (the §4.3 "no
# cooperation" model lives in the simulator, ServerConfig.Piggyback). So
# is gossip's copy of the membership epoch, cluster_membership_epoch's
# value under a second name. So is the forward hop: clients send each miss
# to its owner, so a node never forwards — no Client.FetchGroup, no
# NoteAccess relay and peer backlog, no internal/singleflight and its
# flights — and a client reports what it holds instead of a server
# replaying its cache: no shadow, its note/install replay, its hello
# capacity, its resets or the unvalidated flag. Requests and replies leave
# on the goroutine that made them: no mux writer, no reply-writer loop.
# So is the node-to-node epoch-hint channel: views move between nodes only
# by exchange (gossip's pull and push, a drain's goodbye), so no client
# announces an epoch, no node notes one, no hint starts a pull, and an
# exchange never dials outside the installed view. Servers still hint
# their clients (Client.noteViewHint). So is the server's worker pool and
# the second router interface: no open waits on a peer, so each
# connection's read loop serves every request and writes every reply — no
# per-connection workers or their bound, no InlineRouter, no inline retry
# of an open that blocks — and a client's view hint is followed by its
# next miss, not by a re-pull goroutine. So is the client mux's reply map
# and its watchdog timer: a server answers each connection's requests in
# request order (protocol version 6), so in-flight calls are a queue whose
# head every reply must answer, and a request timeout is the connection's
# deadline — no timer per call or per connection. So is the client mux's
# reader goroutine: the call at the head of the queue reads its own reply,
# installs it and hands the read role to the next call, arming its own
# deadline for reads and writes alike, so a client starts no goroutine.
# So is the pooled, reference-counted group reply and its race-build
# scribble and live count: a reply has one owner at a time — the server
# stages its members on the connection's reply writer, the client call
# that reads it keeps its chunk frames and installs from them — and the
# server builds each open's group once. So are pendingFree, freePending
# and appendPending's revive branch: a call keeps the array of the history
# claim its server consumed, and its next claim, not an append, leaves it
# in the backlog's place. So is the process-wide frame
# pool, its boxing trick and the open path's scratch pool: a frame's bytes
# belong to the connection that reads them, each end reads and encodes
# into buffers its connection keeps (bounded by maxKeptBuf), and every
# reply is decoded before the read role passes on, so nothing hands a
# frame back. So is core's ServeGroup, which learned a request's history
# before building its group: ServeFrom builds first and leaves the
# learning owed to after the reply is flushed unless it could change the
# group. So are the client's second set of counts, the call pool and the
# spare history arrays: ClientStats reads the counters /metrics scrapes
# (no c.stats under the client's lock), and a call belongs to its
# connection, which recycles it with the history array it keeps (no
# sync.Pool in fsnet, muxCallPool, keepSpare or Client.spares). So are
# the single-list victim primitives evictVictim and evictVictimExceptIDs:
# a GroupLRU makes room from its recency or its probation list
# (evictOldestExcept), so a victim names its list. So is the drain
# handoff: a drain is a view change — readiness off, then the goodbye
# push — and a new owner learns from the histories its clients piggyback,
# so no group transfer message (types 8 and 9 are reserved), codec, RPC,
# export walk, report fields or counters. So are the simulator's other
# two-level loops: RunServer is RunServerMulti's replay of one client, and
# every scheme runs behind either client cache, so no runGroupFilter and
# its groupServer closures, no lruFilter check and no groupClient. So is
# core's BuildGroup, which allocated a group per call: a caller builds
# into a buffer it keeps (AppendGroup). So is the per-connection staging,
# stageServed and stage: a server keeps one unstaged open, and every aggMu
# section finishes it first (lockAgg).
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
	@! grep -rnE 'len\(c\.pending\) < maxStatPaths|protocolVersion = 3' --include='*.go' --exclude='*_test.go' .
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
# connection: the ring replay's pinned counts, two clients matching
# simulate.RunServerMulti open by open, and two rings replaying one
# two-client walk alike.
stage-race:
	$(GO) test -race -count 10 -run '^(TestStagingOwnershipFollowsView|TestSoloViewStagesAsNoView|TestRingReplayStagesOwnedFiles|TestTwoClientsMatchRunServerMulti|TestRingReplayTwoClientsIsReproducible)$$' ./internal/fsnet

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
