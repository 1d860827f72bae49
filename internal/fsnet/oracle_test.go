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
