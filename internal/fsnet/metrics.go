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
	streamed    *obs.Counter

	// Validated replies (DESIGN.md §4): members sent header-only, and the
	// contents that saved.
	validated      *obs.Counter
	validatedBytes *obs.Counter
	// peerHints counts the paths of the peers' stage hints received.
	peerHints *obs.Counter

	// Per-phase open latency: a request is a cache hit, a store stage,
	// or a router forward — the three serving paths of DESIGN.md §4.
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
	return serverMetrics{
		requests:    reg.LiveCounter("fsnet_server_requests_total", "open and write requests served, including errors"),
		errors:      reg.LiveCounter("fsnet_server_errors_total", "error replies plus protocol violations"),
		sent:        reg.LiveCounter("fsnet_server_files_sent_total", "files transferred in group replies"),
		rejected:    reg.LiveCounter("fsnet_server_rejected_total", "connections turned away at the MaxConns limit"),
		panics:      reg.LiveCounter("fsnet_server_panics_total", "handler panics recovered and converted to error replies"),
		disconnects: reg.LiveCounter("fsnet_server_disconnects_total", "connections terminated abnormally by I/O failures"),
		remote:      reg.LiveCounter("fsnet_server_remote_opens_total", "open requests answered by the configured router"),
		streamed:    reg.LiveCounter("fsnet_server_streamed_groups_total", "group replies delivered, each as a member stream"),

		validated:      reg.LiveCounter("fsnet_server_validated_members_total", "group members sent header-only: the client held them unchanged"),
		validatedBytes: reg.LiveCounter("fsnet_server_validated_bytes_saved_total", "file contents kept off the wire by header-only members"),
		peerHints:      reg.LiveCounter("fsnet_server_peer_hints_received_total", "paths received in the peers' stage hints"),

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

// clientMetrics is the client's instrumentation bundle. Its counters are
// made as the server's are, so ClientStats reads the storage /metrics is
// scraped from, and clients that share a registry share their counts. The
// in-flight gauge, the histograms and the event log need a registry.
type clientMetrics struct {
	// The paper's quantities (Fig 2): opens served from the cache, of them
	// the ones a prefetched member served, and fetches with what they
	// delivered. A writer moves hits before prefetchHits and degradedHits,
	// and filesReceived before validatedFiles and validationMisses.
	hits          *obs.Counter
	prefetchHits  *obs.Counter
	degradedHits  *obs.Counter
	fetches       *obs.Counter
	filesReceived *obs.Counter
	bytesReceived *obs.Counter
	// Writes, and the connections' failures and what they cost.
	writes      *obs.Counter
	reconnects  *obs.Counter
	brokenConns *obs.Counter
	retries     *obs.Counter
	reroutes    *obs.Counter
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
	// streamed reply, the whole group otherwise).
	ttfb *obs.Histogram
}

// newClientMetrics wires the bundle, registering with reg when non-nil.
func newClientMetrics(reg *obs.Registry) clientMetrics {
	return clientMetrics{
		hits:          reg.LiveCounter("fsnet_client_hits_total", "opens served from the local cache"),
		prefetchHits:  reg.LiveCounter("fsnet_client_prefetch_hits_total", "cache hits on a member that arrived undemanded and had not been demanded since"),
		degradedHits:  reg.LiveCounter("fsnet_client_degraded_hits_total", "cache hits served with no live connection"),
		fetches:       reg.LiveCounter("fsnet_client_fetches_total", "opens answered by a group fetched from a server"),
		filesReceived: reg.LiveCounter("fsnet_client_files_received_total", "group members received, header-only ones included"),
		bytesReceived: reg.LiveCounter("fsnet_client_bytes_received_total", "file contents received in group replies"),
		writes:        reg.LiveCounter("fsnet_client_writes_total", "whole-file writes the seed acknowledged"),
		reconnects:    reg.LiveCounter("fsnet_client_reconnects_total", "successful redials after a broken connection"),
		brokenConns:   reg.LiveCounter("fsnet_client_broken_conns_total", "connections poisoned after an I/O or protocol error"),
		retries:       reg.LiveCounter("fsnet_client_retries_total", "round-trip attempts beyond each request's first"),
		reroutes:      reg.LiveCounter("fsnet_client_reroutes_total", "opens sent to another member because their owner's connection failed"),

		validatedFiles:   reg.LiveCounter("fsnet_client_validated_files_total", "group members that arrived header-only and matched the cached copy"),
		validationMisses: reg.LiveCounter("fsnet_client_validation_misses_total", "header-only members the cache could not match, dropped from their group"),
		historyDropped:   reg.LiveCounter("fsnet_client_history_dropped_total", "piggyback history entries shed, oldest first, at the protocol bound"),

		inflight: reg.Gauge("fsnet_client_inflight", "round trips currently on the wire"),
		callLat:  reg.Histogram("fsnet_client_call_latency_ns", "round-trip latency in nanoseconds, retries included"),
		ttfb:     reg.Histogram("fsnet_client_ttfb_ns", "fetch time to first reply byte in nanoseconds"),
		events:   reg.Events(),
	}
}
