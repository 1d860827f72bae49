package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// populated returns a registry exercising every metric kind.
func populated() *Registry {
	r := NewRegistry()
	r.Counter("srv_requests_total", "open requests served").Add(12)
	r.Counter("srv_errors_total", "request errors").Add(1)
	r.Gauge("srv_inflight", "in-flight requests").Set(3)
	r.GaugeFunc("srv_conns", "open connections", func() float64 { return 2 })
	h := r.Histogram("srv_latency_ns", "request latency", L("phase", "hit"))
	h.Observe(100)
	h.Observe(100)
	h.Observe(100000)
	r.Histogram("srv_latency_ns", "request latency", L("phase", "stage")).Observe(7)
	r.Counter("peer_state", "breaker state", L("peer", `weird"addr\n`)).Add(1)
	return r
}

// TestPrometheusRoundTrip is the exposition-format validation `make
// fleet-smoke` relies on: what WritePrometheus emits must parse
// cleanly under the package's own strict parser.
func TestPrometheusRoundTrip(t *testing.T) {
	r := populated()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	parsed, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, text)
	}

	if s, ok := parsed.Find("srv_requests_total", nil); !ok || s.Value != 12 {
		t.Fatalf("srv_requests_total = %+v, %v", s, ok)
	}
	if parsed.Types["srv_requests_total"] != "counter" {
		t.Fatalf("srv_requests_total type = %q", parsed.Types["srv_requests_total"])
	}
	if s, ok := parsed.Find("srv_inflight", nil); !ok || s.Value != 3 {
		t.Fatalf("srv_inflight = %+v, %v", s, ok)
	}
	if parsed.Types["srv_inflight"] != "gauge" {
		t.Fatalf("srv_inflight type = %q", parsed.Types["srv_inflight"])
	}
	if s, ok := parsed.Find("srv_conns", nil); !ok || s.Value != 2 {
		t.Fatalf("srv_conns (gauge func) = %+v, %v", s, ok)
	}

	// Histogram: per-phase series, cumulative buckets, exact bounds.
	if parsed.Types["srv_latency_ns"] != "histogram" {
		t.Fatalf("srv_latency_ns type = %q", parsed.Types["srv_latency_ns"])
	}
	hit := map[string]string{"phase": "hit"}
	if s, ok := parsed.Find("srv_latency_ns_count", hit); !ok || s.Value != 3 {
		t.Fatalf("hit _count = %+v, %v", s, ok)
	}
	if s, ok := parsed.Find("srv_latency_ns_sum", hit); !ok || s.Value != 100200 {
		t.Fatalf("hit _sum = %+v, %v", s, ok)
	}
	// 100 lands in the bucket with bound 127; cumulative at le=127 is 2.
	if s, ok := parsed.Find("srv_latency_ns_bucket", map[string]string{"phase": "hit", "le": "127"}); !ok || s.Value != 2 {
		t.Fatalf("hit le=127 bucket = %+v, %v", s, ok)
	}
	if s, ok := parsed.Find("srv_latency_ns_bucket", map[string]string{"phase": "hit", "le": "+Inf"}); !ok || s.Value != 3 {
		t.Fatalf("hit +Inf bucket = %+v, %v", s, ok)
	}
	if s, ok := parsed.Find("srv_latency_ns_count", map[string]string{"phase": "stage"}); !ok || s.Value != 1 {
		t.Fatalf("stage _count = %+v, %v", s, ok)
	}

	// Label escaping survives the round trip.
	if s, ok := parsed.Find("peer_state", map[string]string{"peer": `weird"addr\n`}); !ok || s.Value != 1 {
		t.Fatalf("escaped label lost: %+v, %v", s, ok)
	}
}

func TestPrometheusBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns", "")
	for i := 0; i < 10; i++ {
		h.Observe(uint64(1) << uint(i)) // one sample per bucket 1..10
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	var prev float64 = -1
	n := 0
	for _, s := range parsed.Samples {
		if s.Name != "lat_ns_bucket" {
			continue
		}
		if s.Value < prev {
			t.Fatalf("buckets not cumulative: %v after %v", s.Value, prev)
		}
		prev = s.Value
		n++
	}
	if n < 2 {
		t.Fatalf("only %d bucket lines emitted", n)
	}
	if prev != 10 {
		t.Fatalf("final cumulative bucket = %v, want 10", prev)
	}
}

func TestMetricsHandler(t *testing.T) {
	r := populated()
	rec := httptest.NewRecorder()
	r.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	// The exact content type matters: Prometheus content negotiation keys
	// on version and charset, so lock the whole string, not a prefix.
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if _, err := ParseExposition(rec.Body); err != nil {
		t.Fatalf("handler output does not parse: %v", err)
	}
}

// TestPrometheusExemplarRoundTrip locks the bucket→trace link end to
// end: an ObserveTrace sample must surface as an OpenMetrics exemplar
// on its _bucket line, survive the package's own strict parser, and
// carry the trace ID and raw value back out.
func TestPrometheusExemplarRoundTrip(t *testing.T) {
	const traceID = "00000000000000990000000000000aa0"
	r := NewRegistry()
	h := r.Histogram("req_latency_ns", "request latency")
	h.Observe(50)           // untraced sample, same bucket range
	h.ObserveTrace(100, "") // empty trace ID must not pin an exemplar
	h.ObserveTrace(100, traceID)
	h.ObserveTrace(100000, traceID)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, `# {trace_id="`+traceID+`"} 100`) {
		t.Fatalf("exposition missing exemplar annotation:\n%s", text)
	}
	parsed, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition with exemplars does not parse: %v\n%s", err, text)
	}
	// 100 lands in the bucket bounded at 127: that line carries the
	// exemplar; the untraced sample's bucket annotations stay clean.
	s, ok := parsed.Find("req_latency_ns_bucket", map[string]string{"le": "127"})
	if !ok {
		t.Fatalf("le=127 bucket missing")
	}
	if s.Exemplar == nil {
		t.Fatalf("le=127 bucket lost its exemplar: %+v", s)
	}
	if got := s.Exemplar.Labels["trace_id"]; got != traceID {
		t.Fatalf("exemplar trace_id = %q, want %q", got, traceID)
	}
	if s.Exemplar.Value != 100 {
		t.Fatalf("exemplar value = %v, want 100", s.Exemplar.Value)
	}
	if s, ok := parsed.Find("req_latency_ns_bucket", map[string]string{"le": "63"}); !ok || s.Exemplar != nil {
		t.Fatalf("le=63 bucket should have no exemplar: %+v, %v", s, ok)
	}

	// The same exemplar must surface in the JSON snapshot.
	snap := h.Snapshot()
	var found bool
	for _, e := range snap.Exemplars {
		if e.TraceID == traceID && e.Value == 100 {
			found = true
		}
	}
	if !found {
		t.Fatalf("snapshot exemplars missing traced sample: %+v", snap.Exemplars)
	}
}

func TestJSONHandler(t *testing.T) {
	r := populated()
	r.Events().Record("reconnect", F("addr", "x"))
	rec := httptest.NewRecorder()
	r.JSONHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics.json", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var doc struct {
		Metrics []struct {
			Name   string            `json:"name"`
			Kind   string            `json:"kind"`
			Labels map[string]string `json:"labels"`
			Value  *float64          `json:"value"`
			Count  *uint64           `json:"count"`
			P95    *uint64           `json:"p95"`
		} `json:"metrics"`
		Events []struct {
			Kind   string            `json:"kind"`
			Fields map[string]string `json:"fields"`
		} `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	found := map[string]bool{}
	for _, m := range doc.Metrics {
		found[m.Name] = true
		if m.Name == "srv_latency_ns" && m.Labels["phase"] == "hit" {
			if m.Count == nil || *m.Count != 3 || m.P95 == nil || *m.P95 != 131071 {
				t.Fatalf("histogram JSON wrong: %+v", m)
			}
		}
		if m.Name == "srv_requests_total" && (m.Value == nil || *m.Value != 12) {
			t.Fatalf("counter JSON wrong: %+v", m)
		}
	}
	for _, want := range []string{"srv_requests_total", "srv_inflight", "srv_conns", "srv_latency_ns"} {
		if !found[want] {
			t.Fatalf("JSON missing metric %s", want)
		}
	}
	if len(doc.Events) != 1 || doc.Events[0].Kind != "reconnect" || doc.Events[0].Fields["addr"] != "x" {
		t.Fatalf("events JSON wrong: %+v", doc.Events)
	}
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"undeclared sample":  "foo_total 3\n",
		"bad type":           "# TYPE x widget\nx 1\n",
		"bad value":          "# TYPE x counter\nx pancake\n",
		"bad name":           "# TYPE 9x counter\n9x 1\n",
		"unterminated label": "# TYPE x counter\nx{a=\"b 1\n",
		"unquoted label":     "# TYPE x counter\nx{a=b} 1\n",
		"dup type":           "# TYPE x counter\n# TYPE x counter\nx 1\n",
		"count mismatch":     "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 3\n",
	}
	for name, text := range cases {
		if _, err := ParseExposition(strings.NewReader(text)); err == nil {
			t.Fatalf("%s: parse accepted %q", name, text)
		}
	}
}

func TestParseExpositionAcceptsTimestamps(t *testing.T) {
	text := "# TYPE x counter\nx{a=\"b\"} 4 1712345678\n"
	p, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := p.Find("x", map[string]string{"a": "b"}); !ok || s.Value != 4 {
		t.Fatalf("sample = %+v, %v", s, ok)
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{0: "0", 12: "12", -3: "-3", 1.5: "1.5"}
	for v, want := range cases {
		if got := formatValue(v); got != want {
			t.Fatalf("formatValue(%v) = %q, want %q", v, got, want)
		}
	}
}
