package fsnet

import (
	"time"

	"aggcache/internal/obs"
)

// serverMetrics is the server's instrumentation bundle. The
// counters exist unconditionally — standalone atomics when no registry
// is configured, registry-owned series otherwise — so ServerStats reads
// the same storage /metrics is scraped from and the two can never
// disagree. Latency histograms and the event log exist only with a
// registry: that nil keeps time.Now off the uninstrumented hot path.
type serverMetrics struct {
	requests    *obs.Counter
	errors      *obs.Counter
	sent        *obs.Counter
	rejected    *obs.Counter
	panics      *obs.Counter
	disconnects *obs.Counter
	remote      *obs.Counter
	handoffs    *obs.Counter
	streamed    *obs.Counter

	// Validated replies (DESIGN.md §11): members sent header-only, the
	// contents that saved, and shadows discarded, by what discarded them.
	validated      *obs.Counter
	validatedBytes *obs.Counter
	resetsHistory  *obs.Counter
	resetsClient   *obs.Counter

	// Per-phase open latency: a request is a cache hit, a store stage,
	// or a router forward — the three serving paths of DESIGN.md §10/§11.
	latHit     *obs.Histogram
	latStage   *obs.Histogram
	latForward *obs.Histogram

	events *obs.EventLog
	slow   time.Duration
}

// newServerMetrics wires the bundle, registering with reg when non-nil.
func newServerMetrics(reg *obs.Registry, slow time.Duration) serverMetrics {
	const latName = "fsnet_server_request_latency_ns"
	const latHelp = "open latency in nanoseconds by serving phase"
	const resetsName = "fsnet_server_shadow_resets_total"
	const resetsHelp = "connection shadows discarded after vouching for a reply, by what contradicted them"
	return serverMetrics{
		requests:    reg.LiveCounter("fsnet_server_requests_total", "open and write requests served, including errors"),
		errors:      reg.LiveCounter("fsnet_server_errors_total", "error replies plus protocol violations"),
		sent:        reg.LiveCounter("fsnet_server_files_sent_total", "files transferred in group replies"),
		rejected:    reg.LiveCounter("fsnet_server_rejected_total", "connections turned away at the MaxConns limit"),
		panics:      reg.LiveCounter("fsnet_server_panics_total", "handler panics recovered and converted to error replies"),
		disconnects: reg.LiveCounter("fsnet_server_disconnects_total", "connections terminated abnormally by I/O failures"),
		remote:      reg.LiveCounter("fsnet_server_remote_opens_total", "open requests answered by the configured router"),
		handoffs:    reg.LiveCounter("fsnet_server_handoff_groups_total", "drain handoff groups installed from departing peers"),
		streamed:    reg.LiveCounter("fsnet_server_streamed_groups_total", "group replies delivered, each as a member stream"),

		validated:      reg.LiveCounter("fsnet_server_validated_members_total", "group members sent header-only: the client held them unchanged"),
		validatedBytes: reg.LiveCounter("fsnet_server_validated_bytes_saved_total", "file contents kept off the wire by header-only members"),
		resetsHistory:  reg.LiveCounter(resetsName, resetsHelp, obs.L("reason", "history")),
		resetsClient:   reg.LiveCounter(resetsName, resetsHelp, obs.L("reason", "client")),

		latHit:     reg.Histogram(latName, latHelp, obs.L("phase", "hit")),
		latStage:   reg.Histogram(latName, latHelp, obs.L("phase", "stage")),
		latForward: reg.Histogram(latName, latHelp, obs.L("phase", "forward")),
		events:     reg.Events(),
		slow:       slow,
	}
}

// timed reports whether the open path should read the clock at all.
func (m *serverMetrics) timed() bool { return m.latHit != nil || m.slow > 0 }

// observeOpen records one open's latency under its serving phase and
// emits a slow_request event when the configured threshold is crossed.
// A non-empty traceID pins the request as the phase bucket's exemplar,
// so a latency outlier in /metrics resolves to a concrete trace.
func (m *serverMetrics) observeOpen(phase string, path string, d time.Duration, traceID string) {
	switch phase {
	case "hit":
		m.latHit.ObserveTrace(uint64(d), traceID)
	case "stage":
		m.latStage.ObserveTrace(uint64(d), traceID)
	case "forward":
		m.latForward.ObserveTrace(uint64(d), traceID)
	}
	if m.slow > 0 && d >= m.slow {
		m.events.Record("slow_request",
			obs.F("path", path),
			obs.F("phase", phase),
			obs.F("elapsed", d.String()))
	}
}

// clientMetrics is the client's instrumentation bundle. ClientStats (the
// mutex-guarded snapshot struct) stays authoritative; these series are
// bumped alongside at the same sites and are all nil without a registry,
// so the uninstrumented client pays only nil-check branches.
type clientMetrics struct {
	reconnects   *obs.Counter
	brokenConns  *obs.Counter
	retries      *obs.Counter
	degradedHits *obs.Counter
	// Validated replies, the client's side: header-only members honoured,
	// ones it could not honour, and piggyback history shed at the bound.
	validatedFiles   *obs.Counter
	validationMisses *obs.Counter
	historyDropped   *obs.Counter
	inflight         *obs.Gauge
	callLat          *obs.Histogram
	events           *obs.EventLog

	// ttfb records fetch time-to-first-byte: enqueue until the first
	// reply frame of the request arrives (the first member chunk on a
	// streamed reply, the whole group otherwise). Unlike the rest of the
	// bundle it always exists — one atomic add per fetch — so load
	// generators can report streaming latency without wiring a registry.
	ttfb *obs.Histogram
}

// newClientMetrics wires the bundle; all but ttfb stay nil when reg is.
func newClientMetrics(reg *obs.Registry) clientMetrics {
	if reg == nil {
		return clientMetrics{ttfb: obs.NewHistogram()}
	}
	return clientMetrics{
		reconnects:   reg.Counter("fsnet_client_reconnects_total", "successful redials after a broken connection"),
		brokenConns:  reg.Counter("fsnet_client_broken_conns_total", "connections poisoned after an I/O or protocol error"),
		retries:      reg.Counter("fsnet_client_retries_total", "round-trip attempts beyond each request's first"),
		degradedHits: reg.Counter("fsnet_client_degraded_hits_total", "cache hits served with no live connection"),

		validatedFiles:   reg.Counter("fsnet_client_validated_files_total", "group members that arrived header-only and matched the cached copy"),
		validationMisses: reg.Counter("fsnet_client_validation_misses_total", "header-only members the cache could not match, dropped from their group"),
		historyDropped:   reg.Counter("fsnet_client_history_dropped_total", "piggyback history entries shed, oldest first, at the protocol bound"),

		inflight: reg.Gauge("fsnet_client_inflight", "round trips currently on the wire"),
		callLat:  reg.Histogram("fsnet_client_call_latency_ns", "round-trip latency in nanoseconds, retries included"),
		ttfb:     reg.Histogram("fsnet_client_ttfb_ns", "fetch time to first reply byte in nanoseconds"),
		events:   reg.Events(),
	}
}
