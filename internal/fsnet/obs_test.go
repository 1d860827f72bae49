package fsnet

import (
	"bufio"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"aggcache/internal/obs"
)

// routePrefix is handled by the stub router in these tests.
const routePrefix = "/remote/"

// stubRouter handles routePrefix paths with a synthetic one-file group
// and declines everything else, standing in for the cluster tier.
type stubRouter struct{}

func (stubRouter) RouteOpen(path string, accessed []string) ([]GroupFile, bool, error) {
	if !strings.HasPrefix(path, routePrefix) {
		return nil, false, nil
	}
	return []GroupFile{{Path: path, Data: []byte("remote " + path)}}, true, nil
}

// TestServerMetricsExposition drives a registry-instrumented server and
// client and checks the scraped exposition end to end: counters move,
// per-phase latency histograms fill, the connection gauge reads, and the
// whole document parses under the strict exposition parser.
func TestServerMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	store := seededStore(t, 8)
	srv, addr := startServer(t, store, ServerConfig{
		GroupSize: 2,
		Obs:       reg,
		Router:    stubRouter{},
	})
	c, err := Dial(addr, ClientConfig{Obs: reg, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Two fetches of the same path: the first stages, the second is a
	// server cache hit (FetchGroup never answers from the local cache).
	for i := 0; i < 2; i++ {
		if _, err := fetchGroup(c, "/data/f000"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fetchGroup(c, routePrefix+"a"); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	parsed, err := obs.ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, sb.String())
	}
	if s, ok := parsed.Find("fsnet_server_requests_total", nil); !ok || s.Value != 3 {
		t.Fatalf("requests_total = %+v, %v", s, ok)
	}
	if s, ok := parsed.Find("fsnet_server_remote_opens_total", nil); !ok || s.Value != 1 {
		t.Fatalf("remote_opens_total = %+v, %v", s, ok)
	}
	for phase, want := range map[string]float64{"hit": 1, "stage": 1, "forward": 1} {
		s, ok := parsed.Find("fsnet_server_request_latency_ns_count", map[string]string{"phase": phase})
		if !ok || s.Value != want {
			t.Fatalf("latency count phase=%s = %+v, %v (want %v)", phase, s, ok, want)
		}
	}
	if s, ok := parsed.Find("fsnet_server_open_conns", nil); !ok || s.Value < 1 {
		t.Fatalf("open_conns gauge = %+v, %v", s, ok)
	}
	// Client-side series registered on the same registry.
	if _, ok := parsed.Find("fsnet_client_call_latency_ns_count", nil); !ok {
		t.Fatal("client call latency histogram missing")
	}
	if s, ok := parsed.Find("fsnet_client_inflight", nil); !ok || s.Value != 0 {
		t.Fatalf("inflight gauge = %+v, %v (want 0 at rest)", s, ok)
	}
	// ServerStats reads the very same atomics the exposition showed.
	if st := srv.Stats(); st.Requests != 3 || st.RemoteOpens != 1 {
		t.Fatalf("Stats disagrees with exposition: %+v", st)
	}
}

// TestServerSlowRequestEvents sets a threshold every request crosses and
// expects a structured slow_request event per open.
func TestServerSlowRequestEvents(t *testing.T) {
	reg := obs.NewRegistry()
	store := seededStore(t, 2)
	_, addr := startServer(t, store, ServerConfig{Obs: reg, SlowRequest: time.Nanosecond})
	c, err := Dial(addr, ClientConfig{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Open("/data/f000"); err != nil {
		t.Fatal(err)
	}
	var slow []obs.Event
	for _, ev := range reg.Events().Events() {
		if ev.Kind == "slow_request" {
			slow = append(slow, ev)
		}
	}
	if len(slow) != 1 {
		t.Fatalf("slow_request events = %d, want 1 (%+v)", len(slow), slow)
	}
	fields := map[string]string{}
	for _, f := range slow[0].Fields {
		fields[f.Key] = f.Value
	}
	if fields["path"] != "/data/f000" || fields["phase"] != "stage" {
		t.Fatalf("slow_request fields = %v", fields)
	}
}

// TestClientReconnectMetrics poisons the live connection and verifies
// the redial shows up as a counter and a structured reconnect event.
func TestClientReconnectMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	store := seededStore(t, 4)
	_, addr := startServer(t, store, ServerConfig{})
	c, err := Dial(addr, ClientConfig{Obs: reg, Timeout: 5 * time.Second, MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Open("/data/f000"); err != nil {
		t.Fatal(err)
	}
	_ = c.desync(errors.New("injected"))
	if _, err := c.Open("/data/f001"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	parsed, err := obs.ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := parsed.Find("fsnet_client_reconnects_total", nil); !ok || s.Value != 1 {
		t.Fatalf("reconnects_total = %+v, %v", s, ok)
	}
	if s, ok := parsed.Find("fsnet_client_broken_conns_total", nil); !ok || s.Value != 1 {
		t.Fatalf("broken_conns_total = %+v, %v", s, ok)
	}
	kinds := map[string]int{}
	for _, ev := range reg.Events().Events() {
		kinds[ev.Kind]++
	}
	if kinds["conn_broken"] != 1 || kinds["reconnect"] != 1 {
		t.Fatalf("event kinds = %v", kinds)
	}
}

// TestClientDegradedHitMetrics takes the server away and verifies the
// degraded cache hit is counted and logged.
func TestClientDegradedHitMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	store := seededStore(t, 4)
	srv, addr := startServer(t, store, ServerConfig{})
	c, err := Dial(addr, ClientConfig{Obs: reg, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// No reconnection: drop the automatic dialer so the outage sticks.
	c.cfg.Dialer = nil
	if _, err := c.Open("/data/f000"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Force the client to notice the dead transport (uncached path).
	if _, err := c.Open("/data/f001"); err == nil {
		t.Fatal("open of uncached path succeeded against a closed server")
	}
	if _, err := c.Open("/data/f000"); err != nil {
		t.Fatalf("degraded hit failed: %v", err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	parsed, err := obs.ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := parsed.Find("fsnet_client_degraded_hits_total", nil); !ok || s.Value != 1 {
		t.Fatalf("degraded_hits_total = %+v, %v", s, ok)
	}
	found := false
	for _, ev := range reg.Events().Events() {
		if ev.Kind == "degraded_hit" {
			found = true
		}
	}
	if !found {
		t.Fatal("no degraded_hit event recorded")
	}
}

// TestConcurrentStatsSnapshot hammers the server with concurrent opens —
// local hits, store stages, and router forwards — while a snapshotter
// reads Stats() throughout, enforcing the documented relaxed-consistency
// contract: mid-flight every snapshot satisfies
//
//	Requests >= Cache.Hits + Cache.GroupFetches + RemoteOpens
//
// and at quiescence the inequality closes to equality. Run with -race
// (`make race`).
func TestConcurrentStatsSnapshot(t *testing.T) {
	store := seededStore(t, 32)
	srv, addr := startServer(t, store, ServerConfig{GroupSize: 2, Router: stubRouter{}})

	const workers = 8
	const opensPerWorker = 150
	stop := make(chan struct{})
	var snapErr error
	var snapOnce sync.Once
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := srv.Stats()
			if sum := st.Cache.Hits + st.Cache.GroupFetches + st.RemoteOpens; st.Requests < sum {
				snapOnce.Do(func() {
					snapErr = fmt.Errorf("snapshot tearing: Requests=%d < Hits+GroupFetches+RemoteOpens=%d (%+v)",
						st.Requests, sum, st)
				})
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr, ClientConfig{Timeout: 10 * time.Second})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < opensPerWorker; i++ {
				var path string
				switch i % 3 {
				case 0:
					path = fmt.Sprintf("/data/f%03d", i%32) // shared: hits after first stage
				case 1:
					path = fmt.Sprintf("/data/f%03d", (i*7+w)%32)
				default:
					path = fmt.Sprintf("%sr%d", routePrefix, i%5)
				}
				// FetchGroup never answers from the local cache, so every
				// iteration exercises the server.
				if _, err := fetchGroup(c, path); err != nil && !errors.Is(err, errClientClosed) {
					t.Errorf("open %s: %v", path, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()
	if snapErr != nil {
		t.Fatal(snapErr)
	}

	// Quiescent: opens-only, error-free workload closes the equation.
	st := srv.Stats()
	if sum := st.Cache.Hits + st.Cache.GroupFetches + st.RemoteOpens; st.Requests != sum {
		t.Fatalf("at quiescence Requests=%d != Hits+GroupFetches+RemoteOpens=%d (%+v)", st.Requests, sum, st)
	}
	if st.Requests != workers*opensPerWorker {
		t.Fatalf("Requests = %d, want %d", st.Requests, workers*opensPerWorker)
	}
}

// TestValidationSeriesMove drives each series of the validated-reply
// protocol off zero and checks it against the stats struct it mirrors:
// members sent header-only and the bytes that saved, the client's count of
// the ones it honoured and of the ones it could not, history shed at the
// bound, and shadows dropped for either reason.
func TestValidationSeriesMove(t *testing.T) {
	reg := obs.NewRegistry()
	srv, addr := startServer(t, seededStore(t, 24), ServerConfig{GroupSize: 4, Obs: reg})
	c, err := Dial(addr, ClientConfig{CacheCapacity: 8, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	value := func(name string, labels map[string]string) float64 {
		t.Helper()
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		parsed, err := obs.ParseExposition(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		s, ok := parsed.Find(name, labels)
		if !ok {
			t.Fatalf("series %s%v is not exposed", name, labels)
		}
		return s.Value
	}
	open := func(c *Client, n int) {
		t.Helper()
		if _, err := c.Open(fmt.Sprintf("/data/f%03d", n)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3*40; i++ {
		open(c, sharedWalk(i))
	}
	ss, cs := srv.Stats(), c.Stats()
	if ss.ValidatedMembers == 0 || ss.ValidatedBytesSaved == 0 || cs.ValidatedFiles != ss.ValidatedMembers {
		t.Fatalf("setup validated nothing: server %+v, client %+v", ss, cs)
	}
	if v := value("fsnet_server_validated_members_total", nil); v != float64(ss.ValidatedMembers) {
		t.Errorf("validated_members_total = %v, Stats says %d", v, ss.ValidatedMembers)
	}
	if v := value("fsnet_server_validated_bytes_saved_total", nil); v != float64(ss.ValidatedBytesSaved) {
		t.Errorf("validated_bytes_saved_total = %v, Stats says %d", v, ss.ValidatedBytesSaved)
	}
	if v := value("fsnet_client_validated_files_total", nil); v != float64(cs.ValidatedFiles) {
		t.Errorf("client validated_files_total = %v, Stats says %d", v, cs.ValidatedFiles)
	}
	for _, reason := range []string{"history", "client"} {
		if v := value("fsnet_server_shadow_resets_total", map[string]string{"reason": reason}); v != 0 {
			t.Errorf("shadow_resets_total{reason=%s} = %v before any reset", reason, v)
		}
	}

	// More hits than one request can carry: history is shed, the next
	// request says so, and the server drops the shadow at the client's word.
	for i := 0; i < maxStatPaths+8; i++ {
		open(c, 1+i%2)
	}
	open(c, 23)
	if cs := c.Stats(); cs.HistoryDropped == 0 || value("fsnet_client_history_dropped_total", nil) != float64(cs.HistoryDropped) {
		t.Errorf("history_dropped_total = %v, Stats says %d; want both above zero",
			value("fsnet_client_history_dropped_total", nil), cs.HistoryDropped)
	}
	if v := value("fsnet_server_shadow_resets_total", map[string]string{"reason": "client"}); v != 1 {
		t.Errorf("shadow_resets_total{reason=client} = %v, want 1", v)
	}

	// A second connection piggybacks an access it was never sent: the
	// server drops that shadow on its own evidence.
	rc := rawHelloCap(t, rawDial(t, addr), 4)
	for id, accessed := range [][]string{nil, {"/data/f020"}} {
		rc.send(t, msgOpen, uint64(id+1), appendOpenRequest(nil, "/data/f001", accessed))
		for typ := uint8(0); typ != msgGroupEnd; {
			var payload []byte
			if typ, _, payload, err = readFrameID(rc.r); err != nil {
				t.Fatal(err)
			}
			putFrameBuf(payload)
		}
	}
	if v := value("fsnet_server_shadow_resets_total", map[string]string{"reason": "history"}); v != 1 {
		t.Errorf("shadow_resets_total{reason=history} = %v, want 1", v)
	}
	if got := srv.Stats().ShadowResets; got != 2 {
		t.Errorf("Stats().ShadowResets = %d, want both resets", got)
	}

	// A server whose shadow is wrong: a header-only chunk for a file this
	// client never received.
	fake := fakeV3Server(t, serveOpens(func(w *bufio.Writer, id uint64, req openRequest) bool {
		return writeChunk(w, id, req.Path, []byte("x")) == nil && writeHeldChunk(w, id, "/never/sent", 7) == nil &&
			putFrameID(w, msgGroupEnd, id, appendGroupEnd(nil, 2)) == nil
	}))
	wrong, err := Dial(fake, ClientConfig{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer wrong.Close()
	if _, err := wrong.Open("/some/file"); err != nil {
		t.Fatal(err)
	}
	if v := value("fsnet_client_validation_misses_total", nil); v != 1 || wrong.Stats().ValidationMisses != 1 {
		t.Errorf("validation_misses_total = %v, Stats says %d; want 1 and 1", v, wrong.Stats().ValidationMisses)
	}
}
