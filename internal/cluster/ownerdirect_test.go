package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"slices"
	"testing"

	"aggcache/internal/alloctest"
	"aggcache/internal/fsnet"
	"aggcache/internal/successor"
	"aggcache/internal/trace"
)

// plainRing is the 3-node ring of the allocation pins and benchmarks:
// clients and peers dial over plain TCP (the fault-injecting wrapper the
// other tests interpose allocates on its own account).
func plainRing(t testing.TB) *testCluster {
	return startCluster(t, 3, func(i int, cfg *Config, _ *fsnet.ServerConfig) {
		cfg.Dialer = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	})
}

// pathsOwnedBy returns n distinct test paths owned by node owner.
func (tc *testCluster) pathsOwnedBy(t testing.TB, owner, n int) []string {
	t.Helper()
	skip := make(map[string]bool)
	paths := make([]string, n)
	for i := range paths {
		paths[i] = tc.pathOwnedBy(t, owner, skip)
		skip[paths[i]] = true
	}
	return paths
}

// opener returns an op that opens paths round-robin through a plain-TCP
// client seeded at node seed whose cache holds a single file, so every
// open is a fetch and pays the client's one slab for the fetched group —
// the cache's immutable storage. That slab is each budget below, whole.
func (tc *testCluster) opener(t testing.TB, seed int, paths []string) func() {
	client := tc.client(t, seed, fsnet.ClientConfig{
		CacheCapacity: 1,
		Dialer:        func() (net.Conn, error) { return net.Dial("tcp", tc.addrs[seed]) },
		DialMember:    func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) },
	})
	i := 0
	return func() {
		path := paths[i%len(paths)]
		i++
		data, err := client.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != testContent(path) {
			t.Fatalf("open %s = %q", path, data)
		}
	}
}

// TestAllocBudgetOwnerDirectFetch pins a miss of a path another node
// owns: the client sends it straight to the owner over a connection of its
// own, the owner stages its group on the connection's reply writer and
// writes it from the store, and the client keeps it in one slab — the only
// allocation, the same budget as a fetch from a lone server
// (TestAllocBudgetLocalFetch). The budget was 1 too while an entry node
// relayed the owner's frames; the hop it took is gone.
func TestAllocBudgetOwnerDirectFetch(t *testing.T) {
	tc := plainRing(t)
	op := tc.opener(t, 0, tc.pathsOwnedBy(t, 1, 4))
	if allocs := alloctest.PerOp(t, op); allocs != 1 {
		t.Errorf("owner-direct fetch allocates %.0f objects, budget exactly 1", allocs)
	}
	if got := tc.requests(); got[1] < 400 || got[0] != 0 {
		t.Errorf("requests per node %v: the pinned opens did not all go to their owner", got)
	}
}

// TestAllocBudgetLocallyOwnedOpen pins a miss of a path the seed owns:
// served on the seed's read loop for the price of a lone server's fetch,
// the client's slab.
func TestAllocBudgetLocallyOwnedOpen(t *testing.T) {
	tc := plainRing(t)
	op := tc.opener(t, 0, tc.pathsOwnedBy(t, 0, 4))
	if allocs := alloctest.PerOp(t, op); allocs != 1 {
		t.Errorf("locally owned open allocates %.0f objects, budget exactly 1", allocs)
	}
	if got := tc.requests(); got[0] < 400 || got[1]+got[2] != 0 {
		t.Errorf("requests per node %v: the pinned opens were not all the seed's", got)
	}
}

// TestRouteFromReadLoop pins what RouteOpen does on a read loop: a node
// declines every open, the path its own or not and its owner up or down,
// so the read loop serves it from the local store without waiting.
func TestRouteFromReadLoop(t *testing.T) {
	tc := startCluster(t, 2, nil)
	n := tc.nodes[0]
	own := tc.pathOwnedBy(t, 0, nil)
	remote := tc.pathOwnedBy(t, 1, nil)
	check := func(when string) {
		t.Helper()
		for _, path := range []string{own, remote} {
			if files, handled, err := n.RouteOpen(path, []string{own}); files != nil || handled || err != nil {
				t.Errorf("%s: RouteOpen(%s) = %d files, handled=%v err=%v, want declined", when, path, len(files), handled, err)
			}
		}
	}
	check("owner up")
	tc.gates[tc.addrs[1]].SetDown(true)
	check("owner down")
	if st := n.Stats(); st.LocalOpens != 4 || st.ForwardedOpens+st.DegradedOpens != 0 {
		t.Errorf("stats %+v, want 4 local opens and nothing else", st)
	}
}

// metadataTracker reads a server's learned successor metadata back
// through SaveMetadata: its path table, then its tracker.
func metadataTracker(t *testing.T, srv *fsnet.Server) (*successor.Tracker, []string) {
	t.Helper()
	var buf bytes.Buffer
	if err := srv.SaveMetadata(&buf); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(buf.Bytes())
	if _, err := r.Seek(4, io.SeekStart); err != nil { // the magic
		t.Fatal(err)
	}
	uvarint := func() uint64 {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	uvarint() // the format version
	paths := make([]string, uvarint())
	for i := range paths {
		p := make([]byte, uvarint())
		if _, err := io.ReadFull(r, p); err != nil {
			t.Fatal(err)
		}
		paths[i] = string(p)
	}
	tr, err := successor.LoadTracker(r, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	return tr, paths
}

// TestLearningPartition is the ring's learning contract with clients that
// send each miss to its owner: a seeded lock-step replay through one
// client on a three-node ring teaches every node exactly what one tracker
// learns when fed the client's whole open stream, hits and misses alike,
// in order, through the node's last request. Each open reaches every
// owner once, with the next request the client sends it (the history log),
// so every node sees each transition once: equal successor lists, equal
// succession counts, equal access counts. No node forwards.
func TestLearningPartition(t *testing.T) {
	tc := startCluster(t, 3, nil)
	client := tc.client(t, 0, fsnet.ClientConfig{CacheCapacity: 8})
	ids := trace.NewInterner()
	var stream []trace.FileID
	// A walk with locality: mostly the next file of a task of eight,
	// sometimes a jump to another task.
	rng := rand.New(rand.NewSource(7))
	f := 0
	var last string
	for i := 0; i < 3000; i++ {
		if rng.Intn(5) == 0 {
			f = rng.Intn(testFiles/8) * 8
		} else {
			f = f/8*8 + (f+1)%8
		}
		path := fmt.Sprintf("/data/f%03d", f)
		data, err := client.Open(path)
		if err != nil || string(data) != testContent(path) {
			t.Fatalf("open %d %s = %q, %v", i, path, data, err)
		}
		stream = append(stream, ids.Intern(path))
		last = path
	}
	if st := client.Stats(); st.Fetches == 0 || st.Hits == 0 || st.Rerouted != 0 {
		t.Fatalf("client stats %+v: want hits and fetches, nothing rerouted", st)
	}
	// The opens after each node's last request have not reached it yet:
	// one more open of every node's, each a miss in a cache of eight,
	// carries them, and node i learns the stream through its own.
	through := make([]int, len(tc.servers))
	for i := range tc.servers {
		skip := map[string]bool{last: true}
		for f := 0; f < testFiles; f++ {
			if p := fmt.Sprintf("/data/f%03d", f); client.Contains(p) {
				skip[p] = true
			}
		}
		path := tc.pathOwnedBy(t, i, skip)
		if _, err := client.Open(path); err != nil {
			t.Fatal(err)
		}
		stream = append(stream, ids.Intern(path))
		through[i] = len(stream)
		last = path
	}
	// A server learns a request's history after its reply is on the wire:
	// closing the nodes waits for every read loop, and with it for that.
	tc.close()
	for i, srv := range tc.servers {
		ref, err := successor.NewTracker(successor.PolicyLRU, 2)
		if err != nil {
			t.Fatal(err)
		}
		ref.ObserveAll(stream[:through[i]])
		got, paths := metadataTracker(t, srv)
		for f := 0; f < testFiles; f++ {
			path := fmt.Sprintf("/data/f%03d", f)
			var want, have []string
			var wantCounts, haveCounts []uint64
			var wantSeen, haveSeen uint64
			if id, ok := ids.Lookup(path); ok {
				wantSeen = ref.AccessCount(id)
				for _, s := range ref.Successors(id) {
					want = append(want, ids.Path(s))
					wantCounts = append(wantCounts, ref.List(id).Count(s))
				}
			}
			if id := slices.Index(paths, path); id >= 0 {
				haveSeen = got.AccessCount(trace.FileID(id))
				for _, s := range got.Successors(trace.FileID(id)) {
					have = append(have, paths[s])
					haveCounts = append(haveCounts, got.List(trace.FileID(id)).Count(s))
				}
			}
			if !slices.Equal(have, want) || !slices.Equal(haveCounts, wantCounts) || haveSeen != wantSeen {
				t.Errorf("node %d: %s seen %d times, successors %v counted %v; the whole stream says %d, %v, %v",
					i, path, haveSeen, have, haveCounts, wantSeen, want, wantCounts)
			}
		}
		if st := tc.nodes[i].Stats(); st.ForwardedOpens != 0 {
			t.Errorf("node %d forwarded %d opens", i, st.ForwardedOpens)
		}
	}
}

// TestClientFollowsViewChange: a view installed with Update reaches the
// client by the hint its next reply piggybacks, and the miss after that
// reply pulls the new member list before it is routed. The client closes
// its connection to the member that left and sends that member's paths
// to their new owners.
func TestClientFollowsViewChange(t *testing.T) {
	tc := startCluster(t, 3, nil)
	client := tc.client(t, 0, fsnet.ClientConfig{CacheCapacity: 1})
	gone := tc.pathOwnedBy(t, 2, nil)
	stay := tc.pathOwnedBy(t, 0, nil)
	for _, p := range []string{stay, gone} {
		if _, err := client.Open(p); err != nil {
			t.Fatal(err)
		}
	}
	if got := tc.servers[2].Stats().Requests; got != 1 {
		t.Fatalf("node 2 served %d requests before the change, want 1", got)
	}
	for i := 0; i < 2; i++ {
		if err := tc.nodes[i].Update(2, tc.addrs[:2]); err != nil {
			t.Fatal(err)
		}
	}
	// The cache holds gone alone, so stay is a miss for the seed, whose
	// reply carries the new epoch; gone, the next miss, goes to its new
	// owner.
	for i := 0; i < 10; i++ {
		if _, err := client.Open(stay); err != nil {
			t.Fatal(err)
		}
		if data, err := client.Open(gone); err != nil || string(data) != testContent(gone) {
			t.Fatalf("open %s after the change = %q, %v", gone, data, err)
		}
	}
	if got := tc.servers[2].Stats().Requests; got != 1 {
		t.Errorf("the departed node served %d requests after the seed hinted the new view", got-1)
	}
	if st := client.Stats(); st.Rerouted != 0 {
		t.Errorf("rerouted %d opens: the departed member's connection should close, not fail", st.Rerouted)
	}
}
