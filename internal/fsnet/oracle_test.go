package fsnet

import (
	"fmt"
	"testing"

	"aggcache/internal/core"
	"aggcache/internal/trace"
	"aggcache/internal/workload"
)

// TestLiveClientMatchesSimulator is the model oracle: the service is the
// simulator. One Client against one in-process Server replays a trace
// while a core.AggregatingCache of the client's size replays the same
// opens, and a second, server-sized one is driven the way
// simulate.RunServer's piggyback branch drives it (Learn on every open,
// Serve on every client miss). Every open must agree on hit or miss, the
// client's counters must equal the simulated client's, and
// ServerStats.Cache must equal the simulated server's.
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
				simClient, err := core.New(core.Config{Capacity: cell.capacity, GroupSize: cell.g})
				if err != nil {
					t.Fatal(err)
				}
				simServer, err := core.New(core.Config{Capacity: serverCache, GroupSize: cell.g})
				if err != nil {
					t.Fatal(err)
				}
				for i, id := range ids {
					before := cl.Stats().Hits
					if _, err := cl.Open(tr.Paths.Path(id)); err != nil {
						t.Fatalf("open %d: %v", i, err)
					}
					liveHit := cl.Stats().Hits > before
					simServer.Learn(id)
					simHit := simClient.Access(id)
					if !simHit {
						simServer.Serve(id)
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
				if got, want := srv.Stats().Cache, simServer.Stats(); got != want {
					t.Errorf("server cache stats %+v, simulator %+v", got, want)
				}
			})
		}
	}
}
