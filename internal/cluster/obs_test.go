package cluster

import (
	"strings"
	"testing"
	"time"

	"aggcache/internal/fsnet"
	"aggcache/internal/obs"
)

// gaugeValue scrapes the registry and returns the named gauge for peer.
func gaugeValue(t *testing.T, reg *obs.Registry, name, peerAddr string) float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	parsed, err := obs.ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, sb.String())
	}
	s, ok := parsed.Find(name, map[string]string{"peer": peerAddr})
	if !ok {
		t.Fatalf("gauge %s{peer=%q} not exported", name, peerAddr)
	}
	return s.Value
}

// eventKinds returns the recorded breaker event kinds in order.
func eventKinds(reg *obs.Registry) []string {
	var kinds []string
	for _, ev := range reg.Events().Events() {
		if strings.HasPrefix(ev.Kind, "breaker_") {
			kinds = append(kinds, ev.Kind)
		}
	}
	return kinds
}

// TestBreakerGaugeTransitions walks one peer breaker through
// closed → open → half-open → closed under a fake clock and asserts the
// exact exported gauge values and event-log entries at each step, plus
// the failed-probe re-open.
func TestBreakerGaugeTransitions(t *testing.T) {
	reg := obs.NewRegistry()
	clk := newTick()
	const addr = "127.0.0.1:7001"
	client, err := fsnet.NewClient(nil, fsnet.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p := &peer{addr: addr, client: client, now: clk.Now} // failureThreshold 3, downDuration 2s
	p.wireMetrics(reg)
	reg.Events().SetClock(clk.Now)

	// Closed: failures below the threshold move the failure gauge only.
	if !p.admit() {
		t.Fatal("fresh breaker must admit")
	}
	p.noteFailure()
	p.noteFailure()
	if got := gaugeValue(t, reg, "cluster_peer_state", addr); got != breakerClosed {
		t.Fatalf("state after 2 failures = %v, want %d (closed)", got, breakerClosed)
	}
	if got := gaugeValue(t, reg, "cluster_peer_failures", addr); got != 2 {
		t.Fatalf("failures gauge = %v, want 2", got)
	}
	if kinds := eventKinds(reg); len(kinds) != 0 {
		t.Fatalf("events before the trip: %v", kinds)
	}

	// Third failure trips: closed → open.
	p.noteFailure()
	if got := gaugeValue(t, reg, "cluster_peer_state", addr); got != breakerOpen {
		t.Fatalf("state after trip = %v, want %d (open)", got, breakerOpen)
	}
	if got := gaugeValue(t, reg, "cluster_peer_trips", addr); got != 1 {
		t.Fatalf("trips gauge = %v, want 1", got)
	}
	if p.admit() {
		t.Fatal("open breaker admitted an exchange")
	}
	// A failure landing during the cooldown extends it silently.
	p.noteFailure()
	if kinds := eventKinds(reg); len(kinds) != 1 || kinds[0] != "breaker_open" {
		t.Fatalf("events after trip = %v, want exactly [breaker_open]", kinds)
	}

	// Cooldown lapses: exactly one probe is admitted — half-open.
	clk.Advance(3 * time.Second)
	if !p.admit() {
		t.Fatal("lapsed breaker must admit one probe")
	}
	if p.admit() {
		t.Fatal("second probe admitted while half-open")
	}
	if got := gaugeValue(t, reg, "cluster_peer_state", addr); got != breakerHalfOpen {
		t.Fatalf("state half-open = %v, want %d", got, breakerHalfOpen)
	}

	// Probe succeeds: half-open → closed, failure gauge resets.
	p.noteSuccess()
	if got := gaugeValue(t, reg, "cluster_peer_state", addr); got != breakerClosed {
		t.Fatalf("state after close = %v, want %d (closed)", got, breakerClosed)
	}
	if got := gaugeValue(t, reg, "cluster_peer_failures", addr); got != 0 {
		t.Fatalf("failures gauge after close = %v, want 0", got)
	}
	// A steady-state success emits no extra breaker_close.
	p.noteSuccess()
	want := []string{"breaker_open", "breaker_half_open", "breaker_close"}
	if got := eventKinds(reg); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("event sequence = %v, want %v", got, want)
	}

	// Failed probe: trip again, lapse, probe fails → half-open → open.
	p.noteFailure()
	p.noteFailure()
	p.noteFailure()
	clk.Advance(3 * time.Second)
	if !p.admit() {
		t.Fatal("second cooldown lapse must admit a probe")
	}
	p.noteFailure() // the probe's failure re-opens immediately (threshold met: fails never reset)
	if got := gaugeValue(t, reg, "cluster_peer_state", addr); got != breakerOpen {
		t.Fatalf("state after failed probe = %v, want %d (open)", got, breakerOpen)
	}
	want = append(want, "breaker_open", "breaker_half_open", "breaker_open")
	if got := eventKinds(reg); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("event sequence = %v, want %v", got, want)
	}
	// Event timestamps come from the injected fake clock.
	for _, ev := range reg.Events().Events() {
		if ev.Time.Before(time.Unix(1000, 0)) || ev.Time.After(time.Unix(1010, 0)) {
			t.Fatalf("event %s timestamp %v not from the fake clock", ev.Kind, ev.Time)
		}
	}
}

// TestNodeMetricsRegistered checks that constructing an instrumented
// node exports its open counter plus per-peer series, and none of the
// forwarding series a node without a forward hop would leave at zero.
func TestNodeMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	n, err := NewNode(Config{
		Self:  "127.0.0.1:7001",
		Peers: []string{"127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003"},
		Obs:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	parsed, err := obs.ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, sb.String())
	}
	if _, ok := parsed.Find("cluster_local_opens_total", nil); !ok {
		t.Error("metric cluster_local_opens_total not exported")
	}
	for _, name := range []string{"forwarded_opens", "coalesced_forwards", "degraded_opens", "not_found", "peer_backlog"} {
		if strings.Contains(sb.String(), "cluster_"+name) {
			t.Errorf("cluster_%s is exported; a node never forwards", name)
		}
	}
	if strings.Contains(sb.String(), "cluster_mirror_") {
		t.Error("a mirror series is exported; the node keeps no copy of a peer's groups")
	}
	for _, addr := range []string{"127.0.0.1:7002", "127.0.0.1:7003"} {
		for _, name := range []string{"cluster_peer_state", "cluster_peer_failures", "cluster_peer_trips"} {
			if _, ok := parsed.Find(name, map[string]string{"peer": addr}); !ok {
				t.Errorf("metric %s{peer=%q} not exported", name, addr)
			}
		}
	}
	// NodeStats reads the same counters the exposition shows.
	n.localOpens.Add(2)
	if st := n.Stats(); st.LocalOpens != 2 {
		t.Fatalf("NodeStats.LocalOpens = %d, want 2", st.LocalOpens)
	}
}
