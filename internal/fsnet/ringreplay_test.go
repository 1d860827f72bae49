package fsnet

import (
	"crypto/sha256"
	"encoding/hex"
	"net"
	"testing"

	"aggcache/internal/ring"
	"aggcache/internal/trace"
	"aggcache/internal/workload"
)

// ringNames are the members of the replay ring. They are names, not the
// listeners' addresses, so the ring's placement — a function of the
// member names alone — is the same in every run whatever ports the
// listeners got; the client dials a name through DialMember.
var ringNames = []string{"node-a:1", "node-b:2", "node-c:3"}

// ringFleet is a 3-node ring of servers, holding every path of a path
// table, and the clients that replay opens through it, each over one
// connection per node. A node finishes every open it answered before it
// serves the next, whichever connection sends it, so a replay driven in
// lock step is deterministic.
type ringFleet struct {
	clients []*Client
	servers []*Server
	owners  *ring.Ring
}

func newRingFleet(t *testing.T, paths *trace.Interner, clients, clientCache, serverCache, g int) *ringFleet {
	t.Helper()
	f := &ringFleet{owners: ring.Of(ringNames...)}
	addrs := make(map[string]string, len(ringNames))
	for _, name := range ringNames {
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
		srv, err := NewServer(store, ServerConfig{
			GroupSize:     g,
			CacheCapacity: serverCache,
			Views:         newTestViews(name, 1, ringNames...),
		})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(l) }()
		t.Cleanup(func() {
			_ = srv.Close()
			<-done
		})
		f.servers = append(f.servers, srv)
	}
	dial := func(name string) (net.Conn, error) { return net.Dial("tcp", addrs[name]) }
	for range clients {
		cl, err := Dial(addrs[ringNames[0]], ClientConfig{
			CacheCapacity: clientCache,
			Dialer:        func() (net.Conn, error) { return dial(ringNames[0]) },
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
// cache 64, server cache 300, g = 5) reads. The client's hit/miss digest
// was recorded before nodes staged only the files they own, and the rule
// leaves it as it was. Each node's server misses were 825, 934 and 867
// then (ringReplayParentMisses); they are pinned at what the rule reads,
// which neither a node staging every member under the scaled bound (821,
// 931, 868) nor one staging its own under the whole bound of 30 (813,
// 922, 856) reads.
const ringReplayDigest = "dc959e54332169532768382de05b573ac81fa4a97745e5d4a80532724731fbc1"

var (
	ringReplayParentMisses = [3]uint64{825, 934, 867}
	ringReplayMisses       = [3]uint64{814, 920, 855}
)

// TestRingReplayStagesOwnedFiles replays a trace through a 3-node ring in
// lock step. A node stages only the files it owns: after every open, no
// node holds a file another node owns. The replies are what they were
// before the rule (the client's hit/miss sequence is the recorded one),
// and every node misses less than it did, as many times as pinned.
func TestRingReplayStagesOwnedFiles(t *testing.T) {
	tr, err := workload.Standard(workload.ProfileUsers, 1, 10000)
	if err != nil {
		t.Fatal(err)
	}
	f := newRingFleet(t, tr.Paths, 1, 64, 300, 5)
	cl := f.clients[0]
	owner := make(map[string]int, tr.Paths.Len())
	for id := 0; id < tr.Paths.Len(); id++ {
		p := tr.Paths.Path(trace.FileID(id))
		for i, name := range ringNames {
			if f.owners.Owner(p) == name {
				owner[p] = i
			}
		}
	}
	h := sha256.New()
	for i, id := range tr.OpenIDs() {
		path := tr.Paths.Path(id)
		before := cl.Stats().Hits
		if _, err := cl.Open(path); err != nil {
			t.Fatalf("open %d (%s): %v", i, path, err)
		}
		hit := byte('m')
		if cl.Stats().Hits > before {
			hit = 'h'
		}
		h.Write([]byte{hit})
		for n := range f.servers {
			if got := f.strays(n, owner); got != 0 {
				t.Fatalf("open %d (%s): node %d holds %d files another node owns", i, path, n, got)
			}
		}
	}
	digest := hex.EncodeToString(h.Sum(nil))
	var misses [3]uint64
	for n, srv := range f.servers {
		// Closing waits for each connection's last staging.
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		misses[n] = srv.Stats().Cache.Misses
	}
	t.Logf("client digest %s, server misses per node %v", digest, misses)
	if digest != ringReplayDigest {
		t.Errorf("client hit/miss digest %s, want %s: the replies changed", digest, ringReplayDigest)
	}
	for n := range misses {
		if misses[n] != ringReplayMisses[n] || misses[n] >= ringReplayParentMisses[n] {
			t.Errorf("node %d: %d server misses, want %d, fewer than the %d recorded before the rule",
				n, misses[n], ringReplayMisses[n], ringReplayParentMisses[n])
		}
	}
}

// TestRingReplayTwoClientsIsReproducible: two clients replay the same
// alternating walk (the users profile, seeds 1 and 2) through two fresh
// 3-node rings, so every node serves a connection from each. A node
// finishes each answered open before the next, whichever connection sends
// it, so the two rings read the same: equal client hit/miss digests and
// equal server misses on every node.
func TestRingReplayTwoClientsIsReproducible(t *testing.T) {
	paths, events := alternatingWalk(t, workload.ProfileUsers, 5000)
	type result struct {
		digest string
		misses [3]uint64
	}
	var runs [2]result
	for r := range runs {
		f := newRingFleet(t, paths, 2, 64, 300, 5)
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
