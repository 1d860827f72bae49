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
	p := &peer{
		addr:      addr,
		client:    client,
		threshold: 3,
		downFor:   2 * time.Second,
		now:       clk.Now,
	}
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
		t.Fatal("open breaker admitted a forward")
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
// node exports the full routing-counter catalogue plus per-peer series.
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
	for _, name := range []string{
		"cluster_local_opens_total",
		"cluster_forwarded_opens_total",
		"cluster_mirror_hits_total",
		"cluster_coalesced_forwards_total",
		"cluster_degraded_opens_total",
		"cluster_not_found_total",
		"cluster_mirror_groups",
		"cluster_mirror_retained_bytes",
	} {
		if _, ok := parsed.Find(name, nil); !ok {
			t.Errorf("metric %s not exported", name)
		}
	}
	for _, addr := range []string{"127.0.0.1:7002", "127.0.0.1:7003"} {
		for _, name := range []string{"cluster_peer_state", "cluster_peer_failures", "cluster_peer_trips", "cluster_peer_backlog"} {
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

// TestMirrorRetainedBytesGauge: cluster_mirror_retained_bytes is alive —
// it rises by what a mirrored group's frames pin (at least the bytes the
// group carries), agrees with NodeStats, and falls back when the group is
// dropped.
func TestMirrorRetainedBytesGauge(t *testing.T) {
	reg := obs.NewRegistry()
	tc := startCluster(t, 2, func(i int, cfg *Config) {
		cfg.MirrorTTL = time.Hour
		if i == 0 {
			cfg.Obs = reg
		}
	})
	scrape := func() float64 {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		parsed, err := obs.ParseExposition(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		s, ok := parsed.Find("cluster_mirror_retained_bytes", nil)
		if !ok {
			t.Fatal("cluster_mirror_retained_bytes not exported")
		}
		return s.Value
	}
	if got := scrape(); got != 0 {
		t.Fatalf("retained bytes = %v before anything is mirrored, want 0", got)
	}
	path := tc.pathOwnedBy(t, 1, nil)
	files, handled, err := tc.nodes[0].RouteOpen(path, nil)
	if !handled || err != nil {
		t.Fatalf("forward: handled=%v err=%v", handled, err)
	}
	carried := 0
	for _, f := range files {
		carried += len(f.Data)
	}
	got := scrape()
	if got < float64(carried) {
		t.Errorf("retained bytes = %v with a group of %d bytes mirrored, want at least that", got, carried)
	}
	if st := tc.nodes[0].Stats(); float64(st.MirrorRetainedBytes) != got || st.MirrorGroups != 1 {
		t.Errorf("NodeStats says %d bytes in %d groups, the gauge %v in 1", st.MirrorRetainedBytes, st.MirrorGroups, got)
	}
	// The owner leaves the view: its groups are purged.
	if err := tc.nodes[0].Update(2, []string{tc.addrs[0]}); err != nil {
		t.Fatal(err)
	}
	if got := scrape(); got != 0 {
		t.Errorf("retained bytes = %v after the group was purged, want 0", got)
	}
}
