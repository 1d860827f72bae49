package fsnet

import (
	"fmt"
	"testing"

	"aggcache/internal/cache"
	"aggcache/internal/core"
	"aggcache/internal/simulate"
	"aggcache/internal/trace"
	"aggcache/internal/workload"
)

// TestLiveClientMatchesSimulator is the model oracle: the service is the
// simulator. One Client against one in-process Server replays a trace
// while a core.AggregatingCache of the client's size replays the same
// opens, and a second, server-sized one is driven the way
// simulate.RunServer drives SchemeStaged behind ClientGroup: every client
// miss is a ServeFrom of the opens since the previous one and the missed
// file, then a Stage of the same. Every open must agree on hit or miss,
// the client's counters must equal the simulated client's, and
// ServerStats.Cache, read once the server has closed and so staged every
// open, must equal the simulated server's — the deep staging and its
// re-stage on a hit included. Both simulated
// caches build their groups with the server's core.LinkShare. So that the
// oracle really exercises the cut, at least one cell must receive fewer
// files than Fetches × g, and fewer than a client whose groups are not
// cut would have received.
//
// The equality holds while fewer than maxStatPaths hits separate two
// fetches: past that the client stops recording history, the server
// learns a truncated stream and builds different groups than a simulator
// that saw every open. None of these cells comes close.
func TestLiveClientMatchesSimulator(t *testing.T) {
	const (
		opens       = 20000
		serverCache = 256
	)
	cells := []struct{ capacity, g int }{{32, 5}, {128, 3}, {8, 5}, {64, 1}, {512, 8}}
	cut := false
	for _, p := range []workload.Profile{workload.ProfileServer, workload.ProfileUsers, workload.ProfileWorkstation} {
		tr, err := workload.Standard(p, 1, opens)
		if err != nil {
			t.Fatal(err)
		}
		ids := tr.OpenIDs()
		store := NewStore()
		for id := 0; id < tr.Paths.Len(); id++ {
			if err := store.Put(tr.Paths.Path(trace.FileID(id)), []byte{byte(id)}); err != nil {
				t.Fatal(err)
			}
		}
		for _, cell := range cells {
			t.Run(fmt.Sprintf("%s/cap%d/g%d", p, cell.capacity, cell.g), func(t *testing.T) {
				srv, addr := startServer(t, store, ServerConfig{GroupSize: cell.g, CacheCapacity: serverCache})
				cl, err := Dial(addr, ClientConfig{CacheCapacity: cell.capacity})
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				simClient, err := core.New(core.Config{Capacity: cell.capacity, GroupSize: cell.g, LinkShare: core.LinkShare})
				if err != nil {
					t.Fatal(err)
				}
				simServer, err := core.New(core.Config{Capacity: serverCache, GroupSize: cell.g, LinkShare: core.LinkShare})
				if err != nil {
					t.Fatal(err)
				}
				uncut, err := core.New(core.Config{Capacity: cell.capacity, GroupSize: cell.g})
				if err != nil {
					t.Fatal(err)
				}
				var hist, seq []trace.FileID
				for i, id := range ids {
					before := cl.Stats().Hits
					if _, err := cl.Open(tr.Paths.Path(id)); err != nil {
						t.Fatalf("open %d: %v", i, err)
					}
					liveHit := cl.Stats().Hits > before
					uncut.Access(id)
					simHit := simClient.Access(id)
					if simHit {
						hist = append(hist, id)
					} else {
						hist = append(hist, id)
						var hit, owed bool
						seq, hit, owed = simServer.ServeFrom(seq[:0], 1, hist)
						simServer.Stage(1, hist, seq, hit, owed, nil)
						hist = hist[:0]
					}
					if liveHit != simHit {
						t.Fatalf("open %d (%s): live hit=%v, simulator hit=%v", i, tr.Paths.Path(id), liveHit, simHit)
					}
				}
				cs, want := cl.Stats(), simClient.Stats()
				if cs.Hits != want.Hits || cs.Fetches != want.Misses ||
					cs.PrefetchHits != want.PrefetchHits || cs.FilesReceived != want.FilesFetched {
					t.Errorf("client stats %+v, simulator %+v", cs, want)
				}
				if err := srv.Close(); err != nil {
					t.Fatal(err)
				}
				if got, want := srv.Stats().Cache, simServer.Stats(); got != want {
					t.Errorf("server cache stats %+v, simulator %+v", got, want)
				}
				if cs.FilesReceived < cs.Fetches*uint64(cell.g) && cs.FilesReceived < uncut.Stats().FilesFetched {
					cut = true
				}
			})
		}
	}
	if !cut {
		t.Error("every fetch carried a full group: the link cut never fired")
	}
}

// alternatingWalk is a two-client walk over profile p: the opens of its
// traces seeded 1 and 2, opens long each, taken in turn by client 0 and
// client 1, over one path table.
func alternatingWalk(t *testing.T, p workload.Profile, opens int) (*trace.Interner, []trace.Event) {
	t.Helper()
	paths := trace.NewInterner()
	var streams [2][]trace.FileID
	for c := range streams {
		tr, err := workload.Standard(p, int64(c+1), opens)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range tr.OpenIDs() {
			streams[c] = append(streams[c], paths.Intern(tr.Paths.Path(id)))
		}
	}
	var events []trace.Event
	for i := 0; i < max(len(streams[0]), len(streams[1])); i++ {
		for c, ids := range streams {
			if i < len(ids) {
				events = append(events, trace.Event{Op: trace.OpOpen, Client: uint16(c), File: ids[i]})
			}
		}
	}
	return paths, events
}

// TestTwoClientsMatchRunServerMulti is the model oracle with more than one
// client: two Clients of cache 32 share one server (cache 300, g 5), and
// one goroutine drives them alternately, each over its own trace (seeds 1
// and 2 of one profile). The server finishes every answered open before
// it serves the next, whatever the connection, so it is the sequential
// two-level replay simulate.RunServerMulti runs (SchemeStaged behind
// ClientGroup, Piggyback). Every open must agree on hit or miss with that
// replay, stepped here open by open — each client a cache.GroupLRU that
// installs its replies, the server a ServeFrom then a Stage with the
// client as the source — and whose totals must be RunServerMulti's. So
// must ServerStats.Cache's hits, misses and loads, read while the server
// still serves: a snapshot includes every answered open's staging.
func TestTwoClientsMatchRunServerMulti(t *testing.T) {
	const (
		opens       = 20000
		clientCache = 32
		serverCache = 300
		g           = 5
	)
	for _, p := range []workload.Profile{workload.ProfileServer, workload.ProfileUsers} {
		t.Run(string(p), func(t *testing.T) {
			paths, events := alternatingWalk(t, p, opens)
			store := NewStore()
			for id := 0; id < paths.Len(); id++ {
				if err := store.Put(paths.Path(trace.FileID(id)), []byte{byte(id)}); err != nil {
					t.Fatal(err)
				}
			}
			srv, addr := startServer(t, store, ServerConfig{GroupSize: g, CacheCapacity: serverCache})
			simServer, err := core.New(core.Config{Capacity: serverCache, GroupSize: g, LinkShare: core.LinkShare})
			if err != nil {
				t.Fatal(err)
			}
			var (
				clients    [2]*Client
				simClients [2]*cache.GroupLRU
				history    [2][]trace.FileID
				reply      []trace.FileID
			)
			for c := range clients {
				if clients[c], err = Dial(addr, ClientConfig{CacheCapacity: clientCache}); err != nil {
					t.Fatal(err)
				}
				defer clients[c].Close()
				if simClients[c], err = cache.NewGroupLRU(clientCache); err != nil {
					t.Fatal(err)
				}
			}
			for i, ev := range events {
				c := ev.Client
				before := clients[c].Stats().Hits
				if _, err := clients[c].Open(paths.Path(ev.File)); err != nil {
					t.Fatalf("open %d by client %d: %v", i, c, err)
				}
				liveHit := clients[c].Stats().Hits > before
				simHit, _ := simClients[c].Demand(ev.File)
				history[c] = append(history[c], ev.File)
				if !simHit {
					var hit, owed bool
					reply, hit, owed = simServer.ServeFrom(reply[:0], uint64(c), history[c])
					simServer.Stage(uint64(c), history[c], reply, hit, owed, nil)
					simClients[c].Install(reply, false)
					history[c] = history[c][:0]
				}
				if liveHit != simHit {
					t.Fatalf("open %d by client %d (%s): live hit=%v, simulator hit=%v", i, c, paths.Path(ev.File), liveHit, simHit)
				}
			}
			multi, err := simulate.RunServerMulti(events, simulate.ServerConfig{
				FilterCapacity: clientCache, ServerCapacity: serverCache, GroupSize: g,
				Scheme: simulate.SchemeStaged, Filter: simulate.ClientGroup, Piggyback: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			stepped := simServer.Stats()
			if stepped.Hits+stepped.Misses != multi.ClientMisses || stepped.Hits != multi.ServerHits || stepped.Loads != multi.Loads {
				t.Fatalf("stepped replay %+v, RunServerMulti %+v", stepped, multi)
			}
			live := srv.Stats().Cache
			t.Logf("%d requests, %d server hits, %d loads", live.Hits+live.Misses, live.Hits, live.Loads)
			if live.Hits != multi.ServerHits || live.Misses != multi.ClientMisses-multi.ServerHits || live.Loads != multi.Loads {
				t.Errorf("server cache %v; RunServerMulti %d hits of %d requests, %d loads",
					live, multi.ServerHits, multi.ClientMisses, multi.Loads)
			}
		})
	}
}
