package simulate

import (
	"testing"
	"time"

	"aggcache/internal/trace"
	"aggcache/internal/workload"
)

func serverIDs(t *testing.T, opens int) []trace.FileID {
	t.Helper()
	tr, err := workload.Standard(workload.ProfileServer, 1, opens)
	if err != nil {
		t.Fatal(err)
	}
	return tr.OpenIDs()
}

func TestRunClientValidation(t *testing.T) {
	if _, err := RunClient(nil, 0, 1); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := RunClient(nil, 10, -1); err == nil {
		t.Error("negative group accepted")
	}
}

func TestRunClientEmptySequence(t *testing.T) {
	r, err := RunClient(nil, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Fetches != 0 || r.HitRate != 0 {
		t.Errorf("empty run = %+v", r)
	}
}

func TestRunClientGroupingReducesFetches(t *testing.T) {
	ids := serverIDs(t, 15000)
	lru, err := RunClient(ids, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	g5, err := RunClient(ids, 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g5.Fetches >= lru.Fetches {
		t.Errorf("g5 fetches %d >= lru fetches %d", g5.Fetches, lru.Fetches)
	}
	if lru.Fetches == 0 {
		t.Error("LRU fetches = 0; trace too small for the cache")
	}
}

func TestClientSweepShape(t *testing.T) {
	ids := serverIDs(t, 8000)
	groups := []int{1, 3, 5}
	caps := []int{100, 200, 400}
	grid, err := ClientSweep(ids, groups, caps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != len(groups) {
		t.Fatalf("rows = %d, want %d", len(grid), len(groups))
	}
	for i, row := range grid {
		if len(row) != len(caps) {
			t.Fatalf("row %d cols = %d, want %d", i, len(row), len(caps))
		}
		// Fetches must not increase with capacity for the same g.
		for j := 1; j < len(row); j++ {
			if row[j].Fetches > row[j-1].Fetches {
				t.Errorf("g=%d: fetches increased with capacity: %d -> %d",
					groups[i], row[j-1].Fetches, row[j].Fetches)
			}
		}
	}
}

func TestFilterLRU(t *testing.T) {
	ids := []trace.FileID{1, 2, 1, 2, 3, 1}
	misses, err := FilterLRU(ids, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Cache 2: 1 miss, 2 miss, 1 hit, 2 hit, 3 miss(evict 1), 1 miss.
	want := []trace.FileID{1, 2, 3, 1}
	if len(misses) != len(want) {
		t.Fatalf("misses = %v, want %v", misses, want)
	}
	for i := range want {
		if misses[i] != want[i] {
			t.Fatalf("misses = %v, want %v", misses, want)
		}
	}
	if _, err := FilterLRU(ids, 0); err == nil {
		t.Error("capacity 0 accepted")
	}
}

func TestFilterLRUIsSubsequence(t *testing.T) {
	ids := serverIDs(t, 5000)
	misses, err := FilterLRU(ids, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(misses) == 0 || len(misses) >= len(ids) {
		t.Fatalf("misses = %d of %d; filter did nothing", len(misses), len(ids))
	}
	// Subsequence check.
	j := 0
	for _, id := range ids {
		if j < len(misses) && misses[j] == id {
			j++
		}
	}
	if j != len(misses) {
		t.Error("miss stream is not a subsequence of the input")
	}
}

func TestRunServerSchemes(t *testing.T) {
	ids := serverIDs(t, 10000)
	for _, scheme := range []Scheme{SchemeLRU, SchemeLFU, SchemeAggregating} {
		r, err := RunServer(ids, ServerConfig{
			FilterCapacity: 100,
			ServerCapacity: 300,
			Scheme:         scheme,
		})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if r.ClientMisses == 0 {
			t.Errorf("%s: no client misses", scheme)
		}
		if r.HitRate < 0 || r.HitRate > 1 {
			t.Errorf("%s: hit rate %v out of range", scheme, r.HitRate)
		}
	}
	if _, err := RunServer(ids, ServerConfig{FilterCapacity: 10, ServerCapacity: 10, Scheme: "opt"}); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := RunServer(ids, ServerConfig{FilterCapacity: 0, ServerCapacity: 10, Scheme: SchemeLRU}); err == nil {
		t.Error("zero filter capacity accepted")
	}
}

// The paper's central Figure-4 observation: once the client filter reaches
// the server capacity, plain LRU collapses while the aggregating cache
// keeps a solid hit rate.
func TestRunServerAggregatingSurvivesFiltering(t *testing.T) {
	ids := serverIDs(t, 25000)
	const serverCap = 300
	lru, err := RunServer(ids, ServerConfig{FilterCapacity: serverCap, ServerCapacity: serverCap, Scheme: SchemeLRU})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := RunServer(ids, ServerConfig{FilterCapacity: serverCap, ServerCapacity: serverCap, Scheme: SchemeAggregating})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("filter=cache=%d: LRU=%.3f agg=%.3f", serverCap, lru.HitRate, agg.HitRate)
	if lru.HitRate > 0.15 {
		t.Errorf("LRU hit rate %.3f did not collapse under equal-size filtering", lru.HitRate)
	}
	if agg.HitRate < 0.25 {
		t.Errorf("aggregating hit rate %.3f, want >= 0.25 (paper: 30-60%%)", agg.HitRate)
	}
	if agg.HitRate <= lru.HitRate {
		t.Error("aggregating cache did not beat LRU under filtering")
	}
}

const (
	clientHit  = 100 * time.Microsecond
	serverHit  = time.Millisecond
	backendHit = 10 * time.Millisecond
)

// MeanLatency prices every open at the level that served it, summed in
// integer nanoseconds and then divided by the opens.
func TestServerResultMeanLatency(t *testing.T) {
	const client, server, backend = clientHit, serverHit, backendHit
	// LRU(1) never hits an alternating sequence; behind it LRU(2) hits
	// the second 1 and 2 and misses 1, 2, 3 and the last 1.
	r, err := RunServer([]trace.FileID{1, 2, 1, 2, 3, 1}, ServerConfig{FilterCapacity: 1, ServerCapacity: 2, Scheme: SchemeLRU})
	if err != nil {
		t.Fatal(err)
	}
	if r.Opens != 6 || r.ClientMisses != 6 || r.ServerHits != 2 {
		t.Fatalf("result = %+v, want 6 opens, 6 client misses, 2 server hits", r)
	}
	if got, want := r.MeanLatency(client, server, backend), (2*server+4*backend)/6; got != want {
		t.Errorf("MeanLatency = %v, want %v", got, want)
	}
}

// Each level sees only the misses of the level above it, for every scheme.
func TestRunServerCascade(t *testing.T) {
	const client, server, backend = clientHit, serverHit, backendHit
	ids := serverIDs(t, 8000)
	for _, scheme := range []Scheme{SchemeLRU, SchemeLFU, SchemeAggregating} {
		r, err := RunServer(ids, ServerConfig{FilterCapacity: 100, ServerCapacity: 300, Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		if r.Opens != uint64(len(ids)) || r.ServerHits > r.ClientMisses || r.ClientMisses > r.Opens {
			t.Fatalf("%s: counts do not cascade: %+v", scheme, r)
		}
		want := (time.Duration(r.Opens-r.ClientMisses)*client + time.Duration(r.ServerHits)*server +
			time.Duration(r.ClientMisses-r.ServerHits)*backend) / time.Duration(r.Opens)
		if got := r.MeanLatency(client, server, backend); got != want || got <= 0 {
			t.Errorf("%s: MeanLatency = %v, want %v", scheme, got, want)
		}
	}
}

func TestRunServerEmptySequence(t *testing.T) {
	empty, err := RunServer(nil, ServerConfig{FilterCapacity: 4, ServerCapacity: 4, Scheme: SchemeLFU})
	if err != nil {
		t.Fatal(err)
	}
	if empty.Opens != 0 || empty.MeanLatency(clientHit, serverHit, backendHit) != 0 {
		t.Errorf("empty run = %+v", empty)
	}
}

// The latency version of Figure 4's story: swapping the server cache from
// LRU to aggregating cuts the mean open latency.
func TestAggregatingServerCutsLatency(t *testing.T) {
	tr, err := workload.Standard(workload.ProfileWorkstation, 1, 20000)
	if err != nil {
		t.Fatal(err)
	}
	ids := tr.OpenIDs()
	mean := func(scheme Scheme) time.Duration {
		r, err := RunServer(ids, ServerConfig{FilterCapacity: 300, ServerCapacity: 300, Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		return r.MeanLatency(ClientHitLatency, ServerHitLatency, BackendFetchLatency)
	}
	lru, agg := mean(SchemeLRU), mean(SchemeAggregating)
	t.Logf("mean open latency: lru-server=%v agg-server=%v", lru, agg)
	if agg >= lru {
		t.Errorf("aggregating server latency %v >= lru %v", agg, lru)
	}
}

func TestRunServerPiggybackHelps(t *testing.T) {
	ids := serverIDs(t, 20000)
	base := ServerConfig{FilterCapacity: 200, ServerCapacity: 300, Scheme: SchemeAggregating}
	plain, err := RunServer(ids, base)
	if err != nil {
		t.Fatal(err)
	}
	pb := base
	pb.Piggyback = true
	coop, err := RunServer(ids, pb)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("agg hit rate: filtered metadata=%.3f piggybacked=%.3f", plain.HitRate, coop.HitRate)
	// Full-stream metadata must not hurt; usually it helps.
	if coop.HitRate < plain.HitRate-0.05 {
		t.Errorf("piggybacked metadata much worse: %.3f vs %.3f", coop.HitRate, plain.HitRate)
	}
}

func TestServerSweepShape(t *testing.T) {
	ids := serverIDs(t, 6000)
	schemes := []ServerConfig{
		{ServerCapacity: 200, Scheme: SchemeLRU},
		{ServerCapacity: 200, Scheme: SchemeAggregating, GroupSize: 5},
	}
	filters := []int{50, 150, 300}
	grid, err := ServerSweep(ids, schemes, filters, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 2 || len(grid[0]) != 3 {
		t.Fatalf("grid shape %dx%d, want 2x3", len(grid), len(grid[0]))
	}
	for i := range grid {
		for j := range grid[i] {
			if grid[i][j].Config.FilterCapacity != filters[j] {
				t.Errorf("cell %d,%d filter = %d, want %d",
					i, j, grid[i][j].Config.FilterCapacity, filters[j])
			}
		}
	}
}

func TestRunServerMulti(t *testing.T) {
	tr, err := workload.Standard(workload.ProfileUsers, 1, 15000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunServerMulti(tr.Events, ServerConfig{
		FilterCapacity: 100,
		ServerCapacity: 300,
		Scheme:         SchemeAggregating,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clients < 4 {
		t.Errorf("clients = %d, want several", res.Clients)
	}
	if res.ClientMisses == 0 || res.HitRate <= 0 {
		t.Errorf("result = %+v", res)
	}

	// The multi-client simulation with per-client filters and contexts
	// must beat the single-merged-stream approximation of the same
	// scenario: merging both destroys client locality at the filter and
	// corrupts the server's metadata.
	merged, err := RunServer(tr.OpenIDs(), ServerConfig{
		FilterCapacity: 100,
		ServerCapacity: 300,
		Scheme:         SchemeAggregating,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("server hit rate: per-client=%.3f merged=%.3f", res.HitRate, merged.HitRate)
	if res.HitRate <= merged.HitRate {
		t.Errorf("per-client simulation (%.3f) did not beat merged (%.3f)", res.HitRate, merged.HitRate)
	}
}

func TestRunServerMultiValidation(t *testing.T) {
	if _, err := RunServerMulti(nil, ServerConfig{FilterCapacity: 10, ServerCapacity: 10, Scheme: SchemeLRU}); err == nil {
		t.Error("non-aggregating scheme accepted")
	}
	if _, err := RunServerMulti([]trace.Event{{Op: trace.OpOpen}}, ServerConfig{FilterCapacity: 0, ServerCapacity: 10, Scheme: SchemeAggregating}); err == nil {
		t.Error("zero filter capacity accepted")
	}
	// Empty input is fine.
	res, err := RunServerMulti(nil, ServerConfig{FilterCapacity: 10, ServerCapacity: 10, Scheme: SchemeAggregating})
	if err != nil || res.ClientMisses != 0 {
		t.Errorf("empty run = %+v, %v", res, err)
	}
}

// TestGroupFilterOnlyServerCacheDiffers: behind the service's own client
// every scheme answers a miss with the same group — the first g members
// of what one set of metadata rules builds from one learned stream — so
// the clients make the same requests and only the server cache's hits and
// loads differ. An LRU server loads one file a miss; the grouping servers
// load more, and the deep re-staging server misses least.
func TestGroupFilterOnlyServerCacheDiffers(t *testing.T) {
	tr, err := workload.Standard(workload.ProfileWorkstation, 1, 12000)
	if err != nil {
		t.Fatal(err)
	}
	for _, multi := range []bool{false, true} {
		results := map[Scheme]MultiServerResult{}
		for _, scheme := range []Scheme{SchemeLRU, SchemeAggregating, SchemeDeep, SchemeStaged} {
			cfg := ServerConfig{FilterCapacity: 32, ServerCapacity: 300, Scheme: scheme,
				Piggyback: true, Filter: ClientGroup}
			if multi {
				results[scheme], err = RunServerMulti(tr.Events, cfg)
			} else {
				var r ServerResult
				r, err = RunServer(tr.OpenIDs(), cfg)
				results[scheme] = MultiServerResult{Config: r.Config, Clients: 1, ClientMisses: r.ClientMisses,
					ServerHits: r.ServerHits, HitRate: r.HitRate, Opens: r.Opens, Loads: r.Loads}
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		lru, staged := results[SchemeLRU], results[SchemeStaged]
		if lru.Opens != 12000 || lru.ClientMisses == 0 || lru.ClientMisses == lru.Opens {
			t.Fatalf("multi %v: LRU run %+v", multi, lru)
		}
		if lru.Loads != lru.ClientMisses-lru.ServerHits {
			t.Errorf("multi %v: LRU server loaded %d files for %d server misses", multi, lru.Loads, lru.ClientMisses-lru.ServerHits)
		}
		for scheme, r := range results {
			if r.ClientMisses != lru.ClientMisses || r.Clients != lru.Clients {
				t.Errorf("multi %v: %s clients made %d requests, %d clients; LRU's %d, %d", multi, scheme, r.ClientMisses, r.Clients, lru.ClientMisses, lru.Clients)
			}
			if scheme != SchemeLRU && r.Loads <= lru.Loads {
				t.Errorf("multi %v: %s loaded %d files, LRU %d", multi, scheme, r.Loads, lru.Loads)
			}
			if scheme != SchemeStaged && staged.HitRate <= r.HitRate {
				t.Errorf("multi %v: re-staged server hit rate %.3f, %s %.3f", multi, staged.HitRate, scheme, r.HitRate)
			}
		}
	}
}

func TestGroupFilterValidation(t *testing.T) {
	ids := []trace.FileID{1, 2, 3}
	for _, scheme := range []Scheme{SchemeDeep, SchemeStaged} {
		if _, err := RunServer(ids, ServerConfig{FilterCapacity: 10, ServerCapacity: 10, Scheme: scheme}); err == nil {
			t.Errorf("%s accepted behind an LRU filter", scheme)
		}
		if _, err := RunServerMulti(nil, ServerConfig{FilterCapacity: 10, ServerCapacity: 10, Scheme: scheme}); err == nil {
			t.Errorf("%s accepted behind an LRU filter (multi)", scheme)
		}
	}
	if _, err := RunServer(ids, ServerConfig{FilterCapacity: 10, ServerCapacity: 10, Scheme: SchemeLRU, Filter: "nope"}); err == nil {
		t.Error("unknown filter accepted")
	}
	if _, err := RunServer(ids, ServerConfig{FilterCapacity: 0, ServerCapacity: 10, Scheme: SchemeStaged, Filter: ClientGroup}); err == nil {
		t.Error("zero client capacity accepted")
	}
	if _, err := RunServer(ids, ServerConfig{FilterCapacity: 10, ServerCapacity: 10, Scheme: "nope", Filter: ClientGroup}); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := RunServer(ids, ServerConfig{FilterCapacity: 10, ServerCapacity: 10, Scheme: SchemeLFU, Filter: ClientGroup}); err == nil {
		t.Error("LFU accepted behind the group filter")
	}
}
