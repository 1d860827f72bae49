package fsnet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"slices"
	"testing"

	"aggcache/internal/ring"
	"aggcache/internal/trace"
	"aggcache/internal/workload"
)

// ringNames names the members of a replay ring of n nodes. They are
// names, not the listeners' addresses, so the ring's placement — a
// function of the member names alone — is the same in every run whatever
// ports the listeners got; the client dials a name through DialMember.
func ringNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("node-%c:%d", 'a'+i, i+1)
	}
	return names
}

// ringFleet is a ring of servers, holding every path of a path table, and
// the clients that replay opens through it, each over one connection per
// node. Each node sends its stage hints to their owners over a client of
// its own and waits for the ack, so a hint has landed when its sender's
// staging is done; settle finishes every node's staging. A replay that
// settles after every open is deterministic.
type ringFleet struct {
	names   []string
	clients []*Client
	servers []*Server
	owners  *ring.Ring
}

func newRingFleet(t *testing.T, paths *trace.Interner, nodes, clients, clientCache, serverCache, g int) *ringFleet {
	t.Helper()
	names := ringNames(nodes)
	f := &ringFleet{names: names, owners: ring.Of(names...)}
	addrs := make(map[string]string, len(names))
	dial := func(name string) (net.Conn, error) { return net.Dial("tcp", addrs[name]) }
	for _, name := range names {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[name] = l.Addr().String()
		store := NewStore()
		for id := 0; id < paths.Len(); id++ {
			p := paths.Path(trace.FileID(id))
			if err := store.Put(p, traceContent(p, 0)); err != nil {
				t.Fatal(err)
			}
		}
		views := newTestViews(name, 1, names...)
		peers := map[string]*Client{}
		var payload []byte
		views.hints = func(owner string, hint []string, _ int) {
			peer := peers[owner]
			if peer == nil {
				var err error
				if peer, err = NewClient(nil, ClientConfig{Dialer: func() (net.Conn, error) { return dial(owner) }}); err != nil {
					panic(err)
				}
				peers[owner] = peer
			}
			var err error
			if payload, err = peer.PeerHint(payload, hint); err != nil {
				panic(fmt.Sprintf("hint to %s: %v", owner, err))
			}
		}
		srv, err := NewServer(store, ServerConfig{
			GroupSize:     g,
			CacheCapacity: serverCache,
			Views:         views,
		})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(l) }()
		t.Cleanup(func() {
			_ = srv.Close()
			<-done
			for _, peer := range peers {
				_ = peer.Close()
			}
		})
		f.servers = append(f.servers, srv)
	}
	for range clients {
		cl, err := Dial(addrs[names[0]], ClientConfig{
			CacheCapacity: clientCache,
			Dialer:        func() (net.Conn, error) { return dial(names[0]) },
			DialMember:    dial,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cl.Close() })
		f.clients = append(f.clients, cl)
	}
	return f
}

// settle finishes every node's answered open: its staging, and the hints
// that sends, each of which its owner has staged once the ack is back.
// Only the node that answered the last open has one, so no two nodes wait
// on each other's hints.
func (f *ringFleet) settle() {
	for _, srv := range f.servers {
		srv.lockAgg()
		srv.aggMu.Unlock()
	}
}

// replay opens each path of ids through client 0 in lock step, settling
// the ring after every open, and returns the client's hit/miss digest and
// each node's server misses. check, if set, runs after every open.
func (f *ringFleet) replay(t *testing.T, paths *trace.Interner, ids []trace.FileID, check func(i int, path string)) (digest string, misses []uint64) {
	t.Helper()
	cl := f.clients[0]
	h := sha256.New()
	for i, id := range ids {
		path := paths.Path(id)
		before := cl.Stats().Hits
		if _, err := cl.Open(path); err != nil {
			t.Fatalf("open %d (%s): %v", i, path, err)
		}
		hit := byte('m')
		if cl.Stats().Hits > before {
			hit = 'h'
		}
		h.Write([]byte{hit})
		f.settle()
		if check != nil {
			check(i, path)
		}
	}
	for _, srv := range f.servers {
		misses = append(misses, srv.Stats().Cache.Misses)
	}
	return hex.EncodeToString(h.Sum(nil)), misses
}

// strays counts the files node i holds that another node owns, each
// resident id's owner looked up by path in owner.
func (f *ringFleet) strays(i int, owner map[string]int) (n int) {
	s := f.servers[i]
	s.aggMu.Lock()
	defer s.aggMu.Unlock()
	for id, known := trace.FileID(0), s.ids.Len(); int(id) < known; id++ {
		if s.agg.Contains(id) && owner[s.ids.Path(id)] != i {
			n++
		}
	}
	return n
}

// What the ring replay (users profile, seed 1, 10 000 opens, client
// cache 64, server cache 300, g = 5) reads. With one history log every
// owner learns the client's whole stream, so the client's hit/miss
// sequence is a one-member fleet's on any ring (ringReplayDigest); with
// requested history alone it was ringReplayParentDigest. Each node of the
// 3-node ring missed 814, 920 and 855 times before the log and the peer
// stage hints (ringReplayParentMisses); it misses less now, as many times
// as pinned.
const (
	ringReplayDigest       = "6ec93f737f3e4f000754572be7ac5ad060ce85fb2b035626724f26a30b23d6ed"
	ringReplayParentDigest = "dc959e54332169532768382de05b573ac81fa4a97745e5d4a80532724731fbc1"
)

var (
	ringReplayParentMisses = [3]uint64{814, 920, 855}
	ringReplayMisses       = [3]uint64{769, 871, 833}
)

// TestRingReplayStagesOwnedFiles replays a trace through rings of 2, 3
// and 5 nodes in lock step, against a one-member fleet. The client's
// hit/miss sequence on every ring is the one-member fleet's, bit for bit:
// every owner learns the client's whole stream from its history log. A
// node stages only the files it owns, its own and its peers' hints alike:
// after every open no node holds a file another node owns. The hints
// land: every node of a ring receives some, and each node of the 3-node
// ring misses less than it did before the log and the hints, as many
// times as pinned.
func TestRingReplayStagesOwnedFiles(t *testing.T) {
	tr, err := workload.Standard(workload.ProfileUsers, 1, 10000)
	if err != nil {
		t.Fatal(err)
	}
	ids := tr.OpenIDs()
	solo, soloMisses := newRingFleet(t, tr.Paths, 1, 1, 64, 300, 5).replay(t, tr.Paths, ids, nil)
	t.Logf("one member: client digest %s, server misses %v", solo, soloMisses)
	if solo != ringReplayDigest {
		t.Errorf("one-member client hit/miss digest %s, want %s", solo, ringReplayDigest)
	}
	for _, nodes := range []int{2, 3, 5} {
		t.Run(fmt.Sprintf("nodes-%d", nodes), func(t *testing.T) {
			f := newRingFleet(t, tr.Paths, nodes, 1, 64, 300, 5)
			owner := make(map[string]int, tr.Paths.Len())
			for id := 0; id < tr.Paths.Len(); id++ {
				p := tr.Paths.Path(trace.FileID(id))
				owner[p] = slices.Index(f.names, f.owners.Owner(p))
			}
			digest, misses := f.replay(t, tr.Paths, ids, func(i int, path string) {
				for n := range f.servers {
					if got := f.strays(n, owner); got != 0 {
						t.Fatalf("open %d (%s): node %d holds %d files another node owns", i, path, n, got)
					}
				}
			})
			t.Logf("client digest %s, server misses per node %v", digest, misses)
			if digest != solo {
				t.Errorf("client hit/miss digest %s, want the one-member fleet's %s", digest, solo)
			}
			for n, srv := range f.servers {
				if st := srv.Stats(); st.PeerHintsReceived == 0 {
					t.Errorf("node %d received no stage hints", n)
				}
			}
			if nodes != 3 {
				return
			}
			for n := range misses {
				if misses[n] != ringReplayMisses[n] || misses[n] >= ringReplayParentMisses[n] {
					t.Errorf("node %d: %d server misses, want %d, fewer than the %d recorded before the log and the hints",
						n, misses[n], ringReplayMisses[n], ringReplayParentMisses[n])
				}
			}
		})
	}
}

// TestRingReplayTwoClientsIsReproducible: two clients replay the same
// alternating walk (the users profile, seeds 1 and 2) through two fresh
// 3-node rings, so every node serves a connection from each. A node
// finishes each answered open before the next, whichever connection sends
// it, and its hints land before the next open, so the two rings read the
// same: equal client hit/miss digests and equal server misses on every
// node.
func TestRingReplayTwoClientsIsReproducible(t *testing.T) {
	paths, events := alternatingWalk(t, workload.ProfileUsers, 5000)
	type result struct {
		digest string
		misses [3]uint64
	}
	var runs [2]result
	for r := range runs {
		f := newRingFleet(t, paths, 3, 2, 64, 300, 5)
		h := sha256.New()
		for i, ev := range events {
			cl := f.clients[ev.Client]
			before := cl.Stats().Hits
			if _, err := cl.Open(paths.Path(ev.File)); err != nil {
				t.Fatalf("ring %d, open %d by client %d: %v", r, i, ev.Client, err)
			}
			hit := byte('m')
			if cl.Stats().Hits > before {
				hit = 'h'
			}
			h.Write([]byte{hit})
			f.settle()
		}
		runs[r].digest = hex.EncodeToString(h.Sum(nil))
		for n, srv := range f.servers {
			runs[r].misses[n] = srv.Stats().Cache.Misses
		}
		t.Logf("ring %d: client digest %s, server misses per node %v", r, runs[r].digest, runs[r].misses)
	}
	if runs[0] != runs[1] {
		t.Errorf("two rings replaying one walk read %+v and %+v", runs[0], runs[1])
	}
}
