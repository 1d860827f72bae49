package fsnet

import (
	"bufio"
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
	// server cache hit (the raw fetcher keeps no cache), then a routed one
	// through the client.
	raw := newRawFetcher(t, addr)
	for i := 0; i < 2; i++ {
		if _, err := raw.fetch("/data/f000"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Open(routePrefix + "a"); err != nil {
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
	poisonSeed(c)
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

	// Raw fetchers keep no cache, so every open exercises the server.
	fetchers := make([]*rawFetcher, workers)
	for w := range fetchers {
		fetchers[w] = newRawFetcher(t, addr)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
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
				if _, err := fetchers[w].fetch(path); err != nil {
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

// TestConcurrentClientStatsSnapshot is TestConcurrentStatsSnapshot for the
// client: eight goroutines open and write over one registry-instrumented
// client — cache hits, fetches, and replies with header-only members —
// while a snapshotter reads Stats() throughout. Every snapshot must keep
// the bounds the counters' write order promises, and at quiescence every
// field must equal the /metrics series it reads. A second leg makes every
// hit a prefetch hit, so PrefetchHits ≤ Hits holds with nothing to spare
// and a Stats that loaded Hits first would break it. Run with -race
// (`make race`).
func TestConcurrentClientStatsSnapshot(t *testing.T) {
	const files = 24
	reg := obs.NewRegistry()
	_, addr := startServer(t, seededStore(t, files), ServerConfig{GroupSize: 4})
	c, err := Dial(addr, ClientConfig{CacheCapacity: 16, Obs: reg, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const workers = 8
	const opensPerWorker = 120
	const writeEvery = 10
	// One walk of the files in order, over and over, is a loop the cache
	// cannot hold: every open fetches, and the server learns each file's
	// successors. The workers then walk it from their own offsets, so a
	// fetch brings the next files along and they are opened as prefetch
	// hits while other workers' replies vouch for resident members.
	for i := 0; i < 4*files; i++ {
		if _, err := c.Open(fmt.Sprintf("/data/f%03d", i%files)); err != nil {
			t.Fatal(err)
		}
	}
	stop := snapshotClient(c)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opensPerWorker; i++ {
				path := fmt.Sprintf("/data/f%03d", (w*3+i)%files)
				if _, err := c.Open(path); err != nil {
					t.Errorf("open %s: %v", path, err)
					return
				}
				if i%writeEvery == 0 {
					if err := c.Write(path, []byte(fmt.Sprintf("rewritten %s by %d", path, w))); err != nil {
						t.Errorf("write %s: %v", path, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := stop(); err != nil {
		t.Fatal(err)
	}

	st := c.Stats()
	if opens := uint64(4*files + workers*opensPerWorker); st.Opens != opens || st.Writes != workers*opensPerWorker/writeEvery {
		t.Fatalf("Opens=%d Writes=%d, want %d and %d (%+v)", st.Opens, st.Writes,
			opens, workers*opensPerWorker/writeEvery, st)
	}
	if st.Hits == 0 || st.Fetches == 0 || st.PrefetchHits == 0 || st.ValidatedFiles == 0 {
		t.Fatalf("the workload left a count at zero: %+v", st)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	parsed, err := obs.ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	for name, field := range map[string]uint64{
		"fsnet_client_hits_total":              st.Hits,
		"fsnet_client_fetches_total":           st.Fetches,
		"fsnet_client_files_received_total":    st.FilesReceived,
		"fsnet_client_bytes_received_total":    st.BytesReceived,
		"fsnet_client_prefetch_hits_total":     st.PrefetchHits,
		"fsnet_client_degraded_hits_total":     st.DegradedHits,
		"fsnet_client_writes_total":            st.Writes,
		"fsnet_client_validated_files_total":   st.ValidatedFiles,
		"fsnet_client_validation_misses_total": st.ValidationMisses,
		"fsnet_client_history_dropped_total":   st.HistoryDropped,
		"fsnet_client_broken_conns_total":      st.BrokenConns,
		"fsnet_client_reconnects_total":        st.Reconnects,
		"fsnet_client_reroutes_total":          st.Rerouted,
		"fsnet_client_retries_total":           st.Retries,
	} {
		if s, ok := parsed.Find(name, nil); !ok || s.Value != float64(field) {
			t.Errorf("%s = %+v, %v; Stats says %d", name, s, ok, field)
		}
	}

	prefetchHitsOnly(t)
}

// prefetchHitsOnly is TestConcurrentClientStatsSnapshot's second leg. A
// teacher walks 64 files in order so the server learns each one's
// successor; then four workers each walk their own 16 of them, lap after
// lap, over one client of 8 files. A file is opened by one worker only,
// and 63 other opens come between two of its opens, so every hit is the
// first demand of a file a reply brought along: a prefetch hit.
func prefetchHitsOnly(t *testing.T) {
	const files, workers, laps = 64, 4, 200
	_, addr := startServer(t, seededStore(t, files), ServerConfig{GroupSize: 4})
	teacher, err := Dial(addr, ClientConfig{CacheCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*files; i++ {
		if _, err := teacher.Open(fmt.Sprintf("/data/f%03d", i%files)); err != nil {
			t.Fatal(err)
		}
	}
	_ = teacher.Close()
	c, err := Dial(addr, ClientConfig{CacheCapacity: 8, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stop := snapshotClient(c)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			const share = files / workers
			for i := 0; i < laps*share; i++ {
				path := fmt.Sprintf("/data/f%03d", w*share+i%share)
				if _, err := c.Open(path); err != nil {
					t.Errorf("open %s: %v", path, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits == 0 || st.PrefetchHits != st.Hits {
		t.Fatalf("PrefetchHits=%d, Hits=%d: want every hit a prefetch hit, and some (%+v)", st.PrefetchHits, st.Hits, st)
	}
}

// snapshotClient reads c.Stats() in a loop until the returned stop is
// called, and stop reports the first snapshot that broke a bound the
// counters' write order promises.
func snapshotClient(c *Client) (stop func() error) {
	done := make(chan struct{})
	snapErr := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			st := c.Stats()
			var err error
			switch {
			case st.Opens != st.Hits+st.Fetches:
				err = fmt.Errorf("Opens=%d != Hits+Fetches=%d", st.Opens, st.Hits+st.Fetches)
			case st.PrefetchHits > st.Hits:
				err = fmt.Errorf("PrefetchHits=%d > Hits=%d", st.PrefetchHits, st.Hits)
			case st.ValidatedFiles+st.ValidationMisses > st.FilesReceived:
				err = fmt.Errorf("ValidatedFiles+ValidationMisses=%d > FilesReceived=%d",
					st.ValidatedFiles+st.ValidationMisses, st.FilesReceived)
			}
			if err != nil {
				snapErr <- fmt.Errorf("snapshot tearing: %w (%+v)", err, st)
				return
			}
		}
	}()
	return func() error {
		close(done)
		wg.Wait()
		select {
		case err := <-snapErr:
			return err
		default:
			return nil
		}
	}
}

// TestValidationSeriesMove drives each series of the validated-reply
// protocol off zero and checks it against the stats struct it mirrors:
// members sent header-only and the bytes that saved, the client's count of
// the ones it honoured and of the ones it could not, and history shed at
// the bound — after which validation goes on.
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
	var exposed strings.Builder
	if err := reg.WritePrometheus(&exposed); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(exposed.String(), "shadow_resets") {
		t.Error("a shadow-reset series is still exposed: reports leave nothing to reset")
	}

	// More hits than one request can carry: history is shed and counted,
	// and validation goes on.
	for i := 0; i < maxStatPaths+8; i++ {
		open(c, 1+i%2)
	}
	open(c, 23)
	if cs := c.Stats(); cs.HistoryDropped == 0 || value("fsnet_client_history_dropped_total", nil) != float64(cs.HistoryDropped) {
		t.Errorf("history_dropped_total = %v, Stats says %d; want both above zero",
			value("fsnet_client_history_dropped_total", nil), cs.HistoryDropped)
	}
	validated := srv.Stats().ValidatedMembers
	for i := 0; i < 3*40; i++ {
		open(c, sharedWalk(i))
	}
	if now := srv.Stats().ValidatedMembers; now == validated {
		t.Errorf("validated_members_total stuck at %d after the shed", now)
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
