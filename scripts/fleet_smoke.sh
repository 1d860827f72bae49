#!/bin/sh
# Fleet smoke: the one real-process deployment check. Builds aggserve and
# aggbench once, boots one three-node cluster from a shared peers file
# with tracing, gossip and the event log all switched on, and walks it
# through a deployment's life in order: ready -> verified load + metrics
# -> validated replies -> stitched traces -> a one-node reload spread by gossip -> a drain
# under load. aggbench exits non-zero on any failed or wrong-bytes open,
# so "the load exits 0" is the zero-failed-opens assertion.
# Run via `make fleet-smoke`.
set -eu

cd "$(dirname "$0")/.."

A1=${A1:-127.0.0.1:7391} A2=${A2:-127.0.0.1:7392} A3=${A3:-127.0.0.1:7393}
S1=${S1:-127.0.0.1:8391} S2=${S2:-127.0.0.1:8392} S3=${S3:-127.0.0.1:8393}

TMP=$(mktemp -d -t fleet-smoke.XXXXXX)
PIDS=""
trap 'set +e; kill $PIDS 2>/dev/null; wait; rm -rf "$TMP"' EXIT
fail() { echo "fleet-smoke: $*" >&2; exit 1; }

go build -o "$TMP/" ./cmd/aggserve ./cmd/aggbench
printf '%s\n%s\n%s\n' "$A1" "$A2" "$A3" > "$TMP/peers"

boot() {
    "$TMP/aggserve" -addr "$1" -self "$1" -stats "$2" -peers-file "$TMP/peers" \
        -synthetic 200 -idle-timeout 0 -trace-sample 1 -gossip-interval 100ms -slow-request 1ns &
    PIDS="$PIDS $!"
}
boot "$A1" "$S1"
boot "$A2" "$S2"
boot "$A3" "$S3"

status() { curl -s -o /dev/null -w '%{http_code}' "http://$1"; }
metric() { curl -fsS "http://$1/metrics" | awk -v m="$2" 'index($1, m) == 1 { n += $2 } END { print n+0 }'; }
# The top-level Epoch field in /stats is indented two spaces; the one
# nested under Cluster is deeper, so the anchor disambiguates them.
epoch_is() { curl -fsS "http://$1/stats" 2>/dev/null | grep -q "^  \"Epoch\": $2"; }
# wait_for MSG CMD...: poll CMD (up to 10 s) until it succeeds.
wait_for() {
    msg=$1; shift
    for _ in $(seq 1 50); do
        if "$@"; then return 0; fi
        sleep 0.2
    done
    fail "$msg"
}
wait_ready() { wait_for "node $1 never became ready" curl -fs -o /dev/null "http://$1/readyz"; }

# 1. Every node comes up ready, at epoch 1 from the shared peers file.
for s in "$S1" "$S2" "$S3"; do
    wait_ready "$s"
    epoch_is "$s" 1 || fail "node $s did not boot at epoch 1"
done

# 2. One run drives the whole fleet: the working set is written to every
# replica, connections spread over all three nodes, every reply checked.
"$TMP/aggbench" -addr "$A1,$A2,$A3" -conns 6 -workers 2 -opens 600 -metrics || fail "load run failed"

# 2b. Validated replies, fleet-wide. With one request in flight per
# connection (-workers 1) every node's shadow of every client cache is
# exact: members a client already holds cross as headers on all three
# nodes' replies — staged, forwarded and mirrored alike — and not one of
# them misses. (Pipelined connections, as in step 2, may drop their
# shadows; that is allowed, so the equality is asserted here.)
validated_members() {
    n=0
    for s in "$S1" "$S2" "$S3"; do n=$((n + $(metric "$s" fsnet_server_validated_members_total))); done
    echo "$n"
}
before=$(validated_members)
"$TMP/aggbench" -addr "$A1,$A2,$A3" -conns 6 -workers 1 -opens 600 -metrics > "$TMP/lockstep" \
    || { cat "$TMP/lockstep" >&2; fail "lock-step load run failed"; }
grep 'validation:' "$TMP/lockstep"
validated=$(($(validated_members) - before))
[ "$validated" -gt 0 ] || fail "validated_members did not move on a lock-step run"
misses=$(awk '$2 == "fsnet_client_validation_misses_total" { print $3 }' "$TMP/lockstep")
[ "$misses" = 0 ] || fail "validation_misses = '$misses' on a lock-step run, want 0"

# 3. The live exposition: shape checks a human can read in CI logs (grep
# reads the whole stream so curl never sees a closed pipe), then the
# strict parser in internal/obs.
curl -fsS "http://$S1/metrics" | grep '^fsnet_server_requests_total'
curl -fsS "http://$S1/metrics.json" | grep -c '"metrics"' >/dev/null
AGGCACHE_METRICS_URL="http://$S1/metrics" go test -run TestLiveExposition -count=1 ./internal/obs/

# 4. Tracing: with -trace-sample 1 every open minted a root and opens of
# remotely-owned paths carried the context to their owner. The fleet
# scraper must stitch a trace spanning two nodes, or exit non-zero.
"$TMP/aggbench" -trace-collect "$S1,$S2,$S3" -trace-min-nodes 2 > "$TMP/traces" \
    || { cat "$TMP/traces" >&2; fail "no trace spans 2 nodes"; }
# The widest trace is first; its ID must resolve via /trace/<id> on at
# least two of the three nodes (404 on non-participants is correct).
TID=$(grep -o '"trace_id": "[0-9a-f]\{32\}"' "$TMP/traces" | head -1 | cut -d'"' -f4)
[ -n "$TID" ] || fail "collector emitted no trace IDs"
hits=0
for s in "$S1" "$S2" "$S3"; do
    if [ "$(status "$s/trace/$TID")" = 200 ]; then hits=$((hits + 1)); fi
done
[ "$hits" -ge 2 ] || fail "trace $TID resolves on $hits nodes, want >= 2"
# Exemplars: histograms link buckets to trace IDs in OpenMetrics syntax.
curl -fsS "http://$S1/metrics" | grep -q '# {trace_id="' || fail "/metrics carries no exemplars"

# 5. One reload, one node. The peers file carries no epoch directive, so
# node 1 installs epoch 2 — and only gossip can get it to nodes 2 and 3.
curl -fsS -X POST "http://$S1/reload" > /dev/null
for s in "$S1" "$S2" "$S3"; do
    wait_for "node $s never converged to epoch 2" epoch_is "$s" 2
done
# Gossip traffic actually flowed: anti-entropy rounds ran, and at least
# one view moved — as a pull the learner applied or a push-back from the
# newer side; which of the two wins the race varies by run.
[ "$(metric "$S1" gossip_rounds_total)" -gt 0 ] || fail "no anti-entropy rounds ran"
moved=0
for s in "$S1" "$S2" "$S3"; do
    moved=$((moved + $(metric "$s" gossip_views_applied_total) + $(metric "$s" gossip_pushes_total)))
done
[ "$moved" -gt 0 ] || fail "no view moved by gossip"

# 6. Rolling restart: node 3 drains while the load runs through all
# three nodes, its own connections included.
"$TMP/aggbench" -addr "$A1,$A2,$A3" -conns 6 -workers 2 -opens 40000 > "$TMP/load" 2>&1 &
LOADPID=$!
sleep 0.3
curl -fsS -X POST "http://$S3/drain" > /dev/null
kill -0 "$LOADPID" 2>/dev/null || fail "load finished before the drain did; raise -opens"
# Readiness flips on the drained node only; liveness stays green.
[ "$(status "$S3/readyz")" = 503 ] || fail "drained /readyz = $(status "$S3/readyz"), want 503"
curl -fsS "http://$S3/healthz" > /dev/null
for s in "$S1" "$S2"; do
    [ "$(status "$s/readyz")" = 200 ] || fail "survivor $s /readyz = $(status "$s/readyz"), want 200"
done
wait "$LOADPID" || { cat "$TMP/load" >&2; fail "load run failed under drain"; }
cat "$TMP/load"
# The drained node exported its group state and the survivors installed
# it: drain counters on node 3, handoff counters on nodes 1+2.
[ "$(metric "$S3" cluster_drain_groups_sent_total)" -gt 0 ] || fail "drain sent no groups"
installed=$(($(metric "$S1" fsnet_server_handoff_groups_total) + $(metric "$S2" fsnet_server_handoff_groups_total)))
[ "$installed" -gt 0 ] || fail "survivors installed no handoff groups"
# The goodbye push offered the survivors a self-less view at epoch 3;
# both must have dropped node 3 with no operator reload.
for s in "$S1" "$S2"; do
    wait_for "survivor $s never converged to epoch 3" epoch_is "$s" 3
    curl -fsS "http://$s/stats" | grep -q '"Members": 2' || fail "survivor $s still lists the drained node"
done

echo "fleet-smoke: OK ($validated members validated and $misses missed in lock step, trace $TID spans $hits nodes, $moved gossip transfers, $installed handoff groups installed, zero failed opens)"
