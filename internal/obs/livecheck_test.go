package obs

import (
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// TestLiveExposition is the scrape half of the fleet smoke
// (scripts/fleet_smoke.sh, `make fleet-smoke`): point it at a
// running aggserve's /metrics with AGGCACHE_METRICS_URL and it validates
// the live exposition under the strict parser, including the catalogue a
// dashboard would actually chart. Without the env var it skips, so the
// regular test run is unaffected.
func TestLiveExposition(t *testing.T) {
	url := os.Getenv("AGGCACHE_METRICS_URL")
	if url == "" {
		t.Skip("AGGCACHE_METRICS_URL not set; run via `make fleet-smoke`")
	}
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape %s: status %s", url, resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want text/plain; version=0.0.4", ct)
	}
	parsed, err := ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("live exposition does not parse: %v", err)
	}

	if s, ok := parsed.Find("fsnet_server_requests_total", nil); !ok || s.Value == 0 {
		t.Errorf("fsnet_server_requests_total = %+v, %v; want present and nonzero after load", s, ok)
	}
	if typ := parsed.Types["fsnet_server_request_latency_ns"]; typ != "histogram" {
		t.Errorf("fsnet_server_request_latency_ns type = %q, want histogram", typ)
	}
	var latCount float64
	for _, s := range parsed.Samples {
		if s.Name == "fsnet_server_request_latency_ns_count" {
			latCount += s.Value
		}
	}
	if latCount == 0 {
		t.Error("per-phase latency histogram recorded nothing under load")
	}
	for _, name := range []string{
		"core_cache_hits_total",
		"core_cache_misses_total",
		"fsnet_server_open_conns",
	} {
		if _, ok := parsed.Find(name, nil); !ok {
			t.Errorf("metric %s not exported", name)
		}
	}
}
