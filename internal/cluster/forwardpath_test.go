package cluster

import (
	"fmt"
	"net"
	"slices"
	"testing"
	"time"

	"aggcache/internal/alloctest"
	"aggcache/internal/fsnet"
	"aggcache/internal/obs/otrace"
)

// forwardRing is the 3-node ring of the allocation pins and benchmarks:
// peers dial each other over plain TCP (the fault-injecting wrapper the
// other tests interpose allocates on its own account).
func forwardRing(t testing.TB) *testCluster {
	return startCluster(t, 3, func(i int, cfg *Config) {
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

// busiestPeer returns whichever of nodes 1 and 2 owns more of the test
// namespace: ownership follows the listeners' random ports, and a test
// that needs many paths of one remote owner takes the better-stocked one.
func (tc *testCluster) busiestPeer() int {
	owned := make(map[string]int)
	for f := 0; f < testFiles; f++ {
		owned[tc.nodes[0].Owner(fmt.Sprintf("/data/f%03d", f))]++
	}
	if owned[tc.addrs[2]] > owned[tc.addrs[1]] {
		return 2
	}
	return 1
}

// opener returns an op that opens paths round-robin through a client of
// node entry whose cache holds a single file, so every open is a fetch
// and pays the client's one slab for the fetched group — the cache's
// immutable storage (the reused buffer's 0-alloc fetch is the one thing
// it gives up). That slab is each budget below, whole: every node-side
// cost on top of it is gone.
func (tc *testCluster) opener(t testing.TB, entry int, paths []string) func() {
	client := tc.client(t, entry, fsnet.ClientConfig{CacheCapacity: 1})
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

// TestAllocBudgetForwardedOpen pins the forwarded byte's life: the owner
// stages its group into a pooled fsnet.Group, the entry node's reply
// writer sends the very frames its peer client read from the owner, and
// the client keeps them in one slab — the only allocation on three
// machines' worth of code. The budget was 4 while the entry node copied
// the group out of its frames (one slab, one member slice) and the owner
// allocated a result slice per open. Before the single-copy path this open
// cost a goroutine spawn and fresh request strings on both nodes, a timer,
// two singleflight flights and a copy per member.
func TestAllocBudgetForwardedOpen(t *testing.T) {
	tc := forwardRing(t)
	op := tc.opener(t, 0, tc.pathsOwnedBy(t, 1, 4))
	if allocs := alloctest.PerOp(t, op); allocs != 1 {
		t.Errorf("forwarded open allocates %.0f objects, budget exactly 1", allocs)
	}
	if st := tc.nodes[0].Stats(); st.ForwardedOpens < 400 {
		t.Errorf("ForwardedOpens = %d: the pinned opens did not all forward", st.ForwardedOpens)
	}
}

// TestAllocBudgetLocallyOwnedOpen pins an open of a path the entry node
// owns: routed, declined, and served on the read loop for the price of an
// unrouted open, which is the client's slab — the staged group's result
// slice (the second allocation of the old budget) is a pooled fsnet.Group
// now, like every other reply.
func TestAllocBudgetLocallyOwnedOpen(t *testing.T) {
	tc := forwardRing(t)
	op := tc.opener(t, 0, tc.pathsOwnedBy(t, 0, 4))
	if allocs := alloctest.PerOp(t, op); allocs != 1 {
		t.Errorf("locally owned open allocates %.0f objects, budget exactly 1", allocs)
	}
	if st := tc.nodes[0].Stats(); st.LocalOpens < 400 || st.ForwardedOpens != 0 {
		t.Errorf("LocalOpens = %d, ForwardedOpens = %d: the pinned opens were not all local", st.LocalOpens, st.ForwardedOpens)
	}
}

// TestForwardedMemberOpen: a member of a forwarded group is not answered
// out of that group at the entry node. The owner learns a cycle a → m → x,
// so a's group carries m; after the entry node forwards a, an open of m is
// forwarded again and answered with the owner's group for m — anchored at
// m, its members in the owner's order for m — never with a's group
// reordered to lead with m.
func TestForwardedMemberOpen(t *testing.T) {
	tc := forwardRing(t)
	owner := tc.busiestPeer()
	p := tc.pathsOwnedBy(t, owner, 3)
	a, m := p[0], p[1]
	trainer := tc.client(t, owner, fsnet.ClientConfig{CacheCapacity: 1})
	for round := 0; round < 4; round++ {
		for _, path := range p {
			if _, err := trainer.Open(path); err != nil {
				t.Fatal(err)
			}
		}
	}
	paths := func(files []fsnet.GroupFile) []string {
		out := make([]string, len(files))
		for i, f := range files {
			out[i] = f.Path
		}
		return out
	}

	n := tc.nodes[0]
	files, handled, err := n.RouteOpen(a, nil)
	if !handled || err != nil {
		t.Fatalf("forward of %s: handled=%v err=%v", a, handled, err)
	}
	if !slices.Contains(paths(files[1:]), m) {
		t.Fatalf("%s's reply %v does not carry %s: the owner never learned the cycle", a, paths(files), m)
	}
	before := n.Stats().ForwardedOpens
	files, handled, err = n.RouteOpen(m, nil)
	if !handled || err != nil {
		t.Fatalf("forward of member %s: handled=%v err=%v", m, handled, err)
	}
	if got := n.Stats().ForwardedOpens; got != before+1 {
		t.Errorf("ForwardedOpens %d -> %d: the member open was not forwarded", before, got)
	}
	want := append([]string{m}, groupOf(tc.servers[owner], m)...)
	if got := paths(files); !slices.Equal(got, want) {
		t.Errorf("member open answered with %v, want the owner's group for %s: %v", got, m, want)
	}
	for _, f := range files {
		if string(f.Data) != testContent(f.Path) {
			t.Errorf("%s reads %q", f.Path, f.Data)
		}
	}
}

// TestRouteOpenCopiesAndReleases: the plain OpenRouter adapter hands its
// caller a slice in memory of its own, demanded file first, and releases
// the group. Every forward's group is released and its frames recycled
// (scribbled, in race builds) by the next forward while the caller still
// holds every slice it was given; each must read its own file's bytes, and
// at teardown no group is referenced (race builds count: the adapter used
// to abandon one reference per handled open).
func TestRouteOpenCopiesAndReleases(t *testing.T) {
	base, _ := liveGroups()
	tc := forwardRing(t)
	defer tc.checkGroupBalance(t, base)
	paths := tc.pathsOwnedBy(t, tc.busiestPeer(), 6)
	var kept [][]fsnet.GroupFile
	for round := 0; round < 4; round++ {
		for _, p := range paths {
			files, handled, err := tc.nodes[0].RouteOpen(p, nil)
			if err != nil || !handled {
				t.Fatalf("RouteOpen(%s): handled=%v err=%v", p, handled, err)
			}
			if files[0].Path != p {
				t.Fatalf("RouteOpen(%s) leads with %s", p, files[0].Path)
			}
			kept = append(kept, files)
		}
	}
	if st := tc.nodes[0].Stats(); st.ForwardedOpens != uint64(len(kept)) {
		t.Fatalf("ForwardedOpens = %d, want every one of the %d opens forwarded", st.ForwardedOpens, len(kept))
	}
	members := 0
	for _, files := range kept {
		members += len(files) - 1
		for _, f := range files {
			if string(f.Data) != testContent(f.Path) {
				t.Errorf("%s reads %q after its group was released", f.Path, f.Data)
			}
			if cap(f.Data) != len(f.Data) {
				t.Errorf("%s: cap %d > len %d, an append would reach its neighbour", f.Path, cap(f.Data), len(f.Data))
			}
		}
	}
	if members == 0 {
		t.Error("no handled open carried a member: the copy of a whole group went untested")
	}
}

// TestRouteFromReadLoop pins what Route does for a read loop (mayWait
// false) on its own: decline a
// path the node owns and degrade while the owner's breaker is open — and
// refuse, touching nothing, an open that needs the peer, even one whose
// group was just forwarded.
func TestRouteFromReadLoop(t *testing.T) {
	tc := startCluster(t, 2, nil)
	n := tc.nodes[0]
	own := tc.pathOwnedBy(t, 0, nil)
	remote := tc.pathOwnedBy(t, 1, nil)
	other := tc.pathOwnedBy(t, 1, map[string]bool{remote: true})

	if g, handled, blocks, _ := n.Route(own, nil, otrace.Ctx{}, false); g != nil || handled || blocks {
		t.Errorf("own path: handled=%v blocks=%v, want declined", handled, blocks)
	}
	before := n.Stats()
	if _, handled, blocks, _ := n.Route(remote, []string{own}, otrace.Ctx{}, false); handled || !blocks {
		t.Errorf("remote path: handled=%v blocks=%v, want refused", handled, blocks)
	}
	if after := n.Stats(); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("a refused try moved the counters:\n%+v\n%+v", before, after)
	}

	if _, handled, err := n.RouteOpen(remote, nil); !handled || err != nil {
		t.Fatalf("forward: handled=%v err=%v", handled, err)
	}
	// The node keeps nothing of the group it forwarded: the next open of
	// the path needs the owner again.
	if g, handled, blocks, _ := n.Route(remote, nil, otrace.Ctx{}, false); g != nil || handled || !blocks {
		t.Errorf("forwarded path: handled=%v blocks=%v, want refused", handled, blocks)
	}

	// Owner down, breaker open: the read loop degrades on its own and
	// leaves the open on the owner's backlog; it never takes the probe.
	tc.gates[tc.addrs[1]].SetDown(true)
	for i := 0; i < failureThreshold; i++ {
		if _, handled, _ := n.RouteOpen(other, nil); handled {
			t.Fatal("forward to a dead owner was handled")
		}
	}
	if _, handled, blocks, _ := n.Route(other, nil, otrace.Ctx{}, false); handled || blocks {
		t.Errorf("owner down: handled=%v blocks=%v, want degraded inline", handled, blocks)
	}
	if st := n.Stats(); st.DegradedOpens != failureThreshold+1 || st.Peers[0].Backlog == 0 {
		t.Errorf("DegradedOpens = %d, Backlog = %d, want %d and >0", st.DegradedOpens, st.Peers[0].Backlog, failureThreshold+1)
	}
	// Cooldown over: admitting the probe is the forwarding caller's job.
	tc.clk.Advance(2 * time.Minute)
	if _, handled, blocks, _ := n.Route(other, nil, otrace.Ctx{}, false); handled || !blocks {
		t.Errorf("cooldown lapsed: handled=%v blocks=%v, want refused", handled, blocks)
	}
}
