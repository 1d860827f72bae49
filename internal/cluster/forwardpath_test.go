package cluster

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"aggcache/internal/alloctest"
	"aggcache/internal/fsnet"
	"aggcache/internal/obs/otrace"
)

// forwardRing is the 3-node ring of the allocation pins and benchmarks:
// peers dial each other over plain TCP (the fault-injecting wrapper the
// other tests interpose allocates on its own account) and mirrored groups
// never age out under the test.
func forwardRing(t testing.TB, mirrorCapacity int) *testCluster {
	return startCluster(t, 3, func(i int, cfg *Config) {
		cfg.MirrorCapacity = mirrorCapacity
		cfg.MirrorTTL = time.Hour
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
	tc := forwardRing(t, -1) // no mirror: every open forwards
	op := tc.opener(t, 0, tc.pathsOwnedBy(t, 1, 4))
	if allocs := alloctest.PerOp(t, op); allocs != 1 {
		t.Errorf("forwarded open allocates %.0f objects, budget exactly 1", allocs)
	}
	if st := tc.nodes[0].Stats(); st.ForwardedOpens < 400 || st.MirrorHits != 0 {
		t.Errorf("ForwardedOpens = %d, MirrorHits = %d: the pinned opens did not all forward", st.ForwardedOpens, st.MirrorHits)
	}
}

// TestAllocBudgetMirrorHitMemberOpen pins an open answered from the
// mirror for a member that is not its group's anchor: the index slot
// holds the member's place in its group and the reply writer leads with
// it, so the node allocates nothing and the client's slab is the whole
// cost. Unchanged at 1 — these are repeat hits, which the member-first
// slice the mirror used to build on a member's first hit also served
// free; TestAllocBudgetMirrorFirstHitMemberOpen measures the first hits.
func TestAllocBudgetMirrorHitMemberOpen(t *testing.T) {
	tc := forwardRing(t, 0)
	paths := tc.pathsOwnedBy(t, 1, 3)
	// Teach the owner the group, then mirror it at node 0 by opening its
	// anchor there.
	trainer := tc.client(t, 1, fsnet.ClientConfig{CacheCapacity: 1})
	for round := 0; round < 4; round++ {
		for _, p := range paths {
			if _, err := trainer.Open(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := tc.client(t, 0, fsnet.ClientConfig{}).Open(paths[0]); err != nil {
		t.Fatal(err)
	}
	before := tc.nodes[0].Stats()
	op := tc.opener(t, 0, paths[1:])
	if allocs := alloctest.PerOp(t, op); allocs != 1 {
		t.Errorf("mirror-hit member open allocates %.0f objects, budget exactly 1", allocs)
	}
	after := tc.nodes[0].Stats()
	if after.MirrorHits-before.MirrorHits < 400 || after.ForwardedOpens != before.ForwardedOpens {
		t.Errorf("MirrorHits +%d, ForwardedOpens +%d: the pinned opens did not all hit the mirror",
			after.MirrorHits-before.MirrorHits, after.ForwardedOpens-before.ForwardedOpens)
	}
}

// TestAllocBudgetMirrorFirstHitMemberOpen pins the mirror hit cluster3
// actually runs and the test above never saw: a mirror smaller than the
// working set of groups, so a group is evicted before its turn comes
// round again and every hit of a non-anchor member is that member's first
// since its group was (re)mirrored. Opens walk four groups of three —
// anchor, member, member, the order the owner learned them in — through a
// mirror of two: each anchor open forwards and mirrors its group, each
// member open hits it once. The mirror used to build a member-first slice
// on exactly these hits (2 per member open, 1.67 across the three); now
// every one of these opens costs the client's slab.
func TestAllocBudgetMirrorFirstHitMemberOpen(t *testing.T) {
	const groups = 4
	tc := forwardRing(t, 2)
	owner := tc.busiestPeer()
	owned := tc.pathsOwnedBy(t, owner, 3*groups)
	// Teach the owner the groups: anchor, then its two members.
	trainer := tc.client(t, owner, fsnet.ClientConfig{CacheCapacity: 1})
	for round := 0; round < 4; round++ {
		for _, p := range owned {
			if _, err := trainer.Open(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := tc.nodes[0].Stats()
	op := tc.opener(t, 0, owned)
	if allocs := alloctest.PerOp(t, op); allocs != 1 {
		t.Errorf("open through a thrashing mirror allocates %.1f objects, budget exactly 1", allocs)
	}
	after := tc.nodes[0].Stats()
	hits, forwards := after.MirrorHits-before.MirrorHits, after.ForwardedOpens-before.ForwardedOpens
	tc.nodes[0].mirMu.Lock()
	evicted := tc.nodes[0].mirror.evicted
	tc.nodes[0].mirMu.Unlock()
	// 465 opens: every anchor open forwards, every member open hits, and
	// all but the last two mirrored groups were evicted before their reuse.
	if hits < 300 || forwards < 150 || evicted+2 < forwards {
		t.Errorf("MirrorHits +%d, ForwardedOpens +%d, evicted %d: the pinned opens were not first hits under a thrashing mirror", hits, forwards, evicted)
	}
}

// TestAllocBudgetLocallyOwnedOpen pins an open of a path the entry node
// owns: routed, declined, and served on the read loop for the price of an
// unrouted open, which is the client's slab — the staged group's result
// slice (the second allocation of the old budget) is a pooled fsnet.Group
// now, like every other reply.
func TestAllocBudgetLocallyOwnedOpen(t *testing.T) {
	tc := forwardRing(t, 0)
	op := tc.opener(t, 0, tc.pathsOwnedBy(t, 0, 4))
	if allocs := alloctest.PerOp(t, op); allocs != 1 {
		t.Errorf("locally owned open allocates %.0f objects, budget exactly 1", allocs)
	}
	if st := tc.nodes[0].Stats(); st.LocalOpens < 400 || st.ForwardedOpens != 0 {
		t.Errorf("LocalOpens = %d, ForwardedOpens = %d: the pinned opens were not all local", st.LocalOpens, st.ForwardedOpens)
	}
}

// TestMirroredArenaIsNotAliased: a mirrored group's bytes are the frames
// they arrived in, and they are the mirror's alone while it holds its
// reference — written replies give theirs back, the mirror's keeps the
// frames out of the pool. They must survive the peer connection reading
// other replies into recycled frame buffers, and a later Write to the same
// path at the owner (the mirror serves the group as fetched until its
// TTL).
func TestMirroredArenaIsNotAliased(t *testing.T) {
	tc := forwardRing(t, 0)
	owner := tc.busiestPeer() // seventeen of its paths are needed
	path := tc.pathOwnedBy(t, owner, nil)
	if _, err := tc.client(t, 0, fsnet.ClientConfig{}).Open(path); err != nil {
		t.Fatal(err)
	}

	// Cycle the peer connection's frame buffers through replies of other
	// contents: same length as the mirrored file's, so a buffer released
	// too early is the very one the pool hands back.
	skip := map[string]bool{path: true}
	churn := tc.client(t, 0, fsnet.ClientConfig{CacheCapacity: 1})
	for i := 0; i < 16; i++ {
		other := tc.pathOwnedBy(t, owner, skip)
		skip[other] = true
		junk := bytes.Repeat([]byte{byte('A' + i)}, len(testContent(path)))
		for _, st := range tc.stores {
			if err := st.Put(other, junk); err != nil {
				t.Fatal(err)
			}
		}
		if data, err := churn.Open(other); err != nil || !bytes.Equal(data, junk) {
			t.Fatalf("churn open %s = %q, %v", other, data, err)
		}
	}
	// Overwrite the mirrored path at its owner.
	if err := tc.client(t, owner, fsnet.ClientConfig{}).Write(path, []byte("rewritten at the owner")); err != nil {
		t.Fatal(err)
	}

	before := tc.nodes[0].Stats().MirrorHits
	data, err := tc.client(t, 0, fsnet.ClientConfig{}).Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != testContent(path) {
		t.Errorf("mirrored bytes changed under recycling and a write: %q", data)
	}
	if hits := tc.nodes[0].Stats().MirrorHits; hits != before+1 {
		t.Errorf("MirrorHits = %d, want %d: the open was not served from the mirror", hits, before+1)
	}
}

// TestRouteOpenCopiesAndReleases: the plain OpenRouter adapter hands its
// caller a lead-first slice in memory of its own and releases the group.
// Forwards and mirror hits — members served lead-first out of a mirrored
// group — go through a mirror of two, so groups are evicted, released and
// their frames recycled (scribbled, in race builds) while the caller still
// holds every slice it was given; each must read its own file's bytes, and
// at teardown no group is referenced but the mirrors' (race builds count:
// the adapter used to abandon one reference per handled open).
func TestRouteOpenCopiesAndReleases(t *testing.T) {
	base, _ := liveGroups()
	tc := forwardRing(t, 2)
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
	if st := tc.nodes[0].Stats(); st.MirrorHits == 0 || st.ForwardedOpens == 0 {
		t.Fatalf("mirror hits %d, forwards %d: want both paths exercised", st.MirrorHits, st.ForwardedOpens)
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
		t.Error("no handled open carried a member: the lead-first copy went untested")
	}
}

// TestTryRouteOpen pins what a read loop may do on its own: decline a
// path the node owns, answer from the mirror, degrade while the owner's
// breaker is open — and refuse, touching nothing, an open that needs the
// peer.
func TestTryRouteOpen(t *testing.T) {
	tc := startCluster(t, 2, func(i int, cfg *Config) {
		cfg.MirrorTTL = time.Hour
		cfg.FailureThreshold = 1
		cfg.DownDuration = time.Minute
	})
	n := tc.nodes[0]
	own := tc.pathOwnedBy(t, 0, nil)
	remote := tc.pathOwnedBy(t, 1, nil)
	other := tc.pathOwnedBy(t, 1, map[string]bool{remote: true})

	if g, _, handled, blocks := n.TryRouteOpen(own, nil, otrace.Ctx{}); g != nil || handled || blocks {
		t.Errorf("own path: handled=%v blocks=%v, want declined", handled, blocks)
	}
	before := n.Stats()
	if _, _, handled, blocks := n.TryRouteOpen(remote, []string{own}, otrace.Ctx{}); handled || !blocks {
		t.Errorf("unmirrored remote path: handled=%v blocks=%v, want refused", handled, blocks)
	}
	if after := n.Stats(); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("a refused try moved the counters:\n%+v\n%+v", before, after)
	}

	if _, handled, err := n.RouteOpen(remote, nil); !handled || err != nil {
		t.Fatalf("forward: handled=%v err=%v", handled, err)
	}
	g, lead, handled, blocks := n.TryRouteOpen(remote, nil, otrace.Ctx{})
	if !handled || blocks || g == nil || g.Files[lead].Path != remote || string(g.Files[lead].Data) != testContent(remote) {
		t.Fatalf("mirrored path: handled=%v blocks=%v group=%v, want the mirrored group", handled, blocks, g)
	}
	g.Release()

	// Owner down, breaker open: the read loop degrades on its own and
	// leaves the open on the owner's backlog; it never takes the probe.
	tc.gates[tc.addrs[1]].SetDown(true)
	if _, handled, _ := n.RouteOpen(other, nil); handled {
		t.Fatal("forward to a dead owner was handled")
	}
	if _, _, handled, blocks := n.TryRouteOpen(other, nil, otrace.Ctx{}); handled || blocks {
		t.Errorf("owner down: handled=%v blocks=%v, want degraded inline", handled, blocks)
	}
	if st := n.Stats(); st.DegradedOpens != 2 || st.Peers[0].Backlog == 0 {
		t.Errorf("DegradedOpens = %d, Backlog = %d, want 2 and >0", st.DegradedOpens, st.Peers[0].Backlog)
	}
	// Cooldown over: admitting the probe is the forwarding caller's job.
	tc.clk.Advance(2 * time.Minute)
	if _, _, handled, blocks := n.TryRouteOpen(other, nil, otrace.Ctx{}); handled || !blocks {
		t.Errorf("cooldown lapsed: handled=%v blocks=%v, want refused", handled, blocks)
	}
}
