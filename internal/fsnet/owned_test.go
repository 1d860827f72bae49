package fsnet

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aggcache/internal/obs"
	"aggcache/internal/ring"
	"aggcache/internal/trace"
)

// The ownership suite: a server with a view stages only the files it owns
// on the ring that view's members make, under a probation bound divided
// among them, and follows the view as it moves.

// rawOpener is a lock-step open session over one raw connection, which
// pulls no view and so sends every open to the one server it dialed.
type rawOpener struct {
	rc   *rawConn
	next uint64
}

func dialRawOpener(t testing.TB, addr string) *rawOpener {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	rc := &rawConn{Conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
	if err := writeHello(conn, msgHello, protocolVersion, 0); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := readFrame(rc.r); err != nil || typ != msgHelloOK {
		t.Fatalf("handshake reply = type %d, %v; want msgHelloOK", typ, err)
	}
	return &rawOpener{rc: rc}
}

// open sends an open of path carrying the history accessed and reads its
// group reply, passing over the view hints a server with a view sends
// ahead of its replies.
func (o *rawOpener) open(path string, accessed ...string) error {
	o.next++
	if err := putFrameID(o.rc.w, msgOpen, o.next, encodeOpenRequest(openRequest{Path: path, Accessed: accessed})); err != nil {
		return err
	}
	if err := o.rc.w.Flush(); err != nil {
		return err
	}
	for {
		typ, id, _, err := readFrameID(o.rc.r, nil)
		switch {
		case err != nil:
			return err
		case typ == msgViewHint:
		case id != o.next || (typ != msgMemberChunk && typ != msgGroupEnd):
			return fmt.Errorf("reply to open %d of %s: type %d id %d", o.next, path, typ, id)
		case typ == msgGroupEnd:
			return nil
		}
	}
}

// residents returns the paths among paths that srv's cache holds, once
// it has staged every open it answered.
func residents(srv *Server, paths []string) map[string]bool {
	srv.lockAgg()
	defer srv.aggMu.Unlock()
	held := make(map[string]bool)
	for _, p := range paths {
		if id, ok := srv.ids.Lookup(p); ok && srv.agg.Contains(id) {
			held[p] = true
		}
	}
	return held
}

// TestSoloViewStagesAsNoView: a server whose view is itself alone owns
// every file and keeps the whole probation bound, so it stages exactly
// what a server without a view stages.
func TestSoloViewStagesAsNoView(t *testing.T) {
	const files = 60
	store := seededStore(t, files)
	paths := make([]string, files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/data/f%03d", i)
	}
	cfg := ServerConfig{GroupSize: 5, CacheCapacity: 40}
	plain, plainAddr := startServer(t, store, cfg)
	cfg.Views = newTestViews("me:1", 1, "me:1")
	solo, soloAddr := startServer(t, store, cfg)
	solo.aggMu.Lock()
	own := solo.own.current()
	bound := solo.agg.Probation(own)
	solo.aggMu.Unlock()
	if own != nil || bound != 20 {
		t.Fatalf("a one-member view's owner = %v, probation %d; want none and the whole bound, 20", own, bound)
	}
	for _, addr := range []string{plainAddr, soloAddr} {
		o := dialRawOpener(t, addr)
		rng := rand.New(rand.NewSource(1))
		prev := paths[0]
		for i := 0; i < 2000; i++ {
			// A walk that mostly follows the file after the last one, so
			// the servers learn chains and stage deep groups.
			next := paths[(indexOf(paths, prev)+1)%files]
			if rng.Intn(4) == 0 {
				next = paths[rng.Intn(files)]
			}
			if err := o.open(next, prev); err != nil {
				t.Fatal(err)
			}
			prev = next
		}
	}
	if got, want := solo.Stats().Cache, plain.Stats().Cache; got != want {
		t.Errorf("one-member view: cache %+v, want a viewless server's %+v", got, want)
	}
	if got, want := residents(solo, paths), residents(plain, paths); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("one-member view holds %v, a viewless server %v", got, want)
	}
}

func indexOf(paths []string, p string) int {
	for i, q := range paths {
		if q == p {
			return i
		}
	}
	return -1
}

// TestStagingOwnershipFollowsView moves a server's view — one member, two,
// three, then one of them replaced — while opens run on two connections,
// and checks after each move that the probation bound is the member
// count's share (30, 15, 10, 10) and that every file the server has
// interned is owned exactly as the new ring places it. Then, on one
// connection, it stages a learned chain under each of two views whose
// members the node partly owns: only the owned members enter — the
// files the second view gave the node among them, the ones it took away
// not.
func TestStagingOwnershipFollowsView(t *testing.T) {
	// The walks open the first walked files; the chains below use the
	// rest.
	const files, walked = 200, 100
	store := seededStore(t, files)
	paths := make([]string, files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/data/f%03d", i)
	}
	const self = "me:1"
	views := newTestViews(self, 1, self)
	srv, addr := startServer(t, store, ServerConfig{GroupSize: 5, CacheCapacity: 300, Views: views})

	var stop atomic.Bool
	var opens [2]atomic.Uint64
	var wg sync.WaitGroup
	for w := range opens {
		o := dialRawOpener(t, addr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			prev := paths[0]
			for !stop.Load() {
				next := paths[rng.Intn(walked/2)*2+w] // each worker walks its own half
				if err := o.open(next, prev); err != nil {
					t.Error(err)
					return
				}
				prev = next
				opens[w].Add(1)
			}
		}()
	}
	// waitOpens waits until both connections have made n more opens.
	waitOpens := func(n uint64) {
		t.Helper()
		base := [2]uint64{opens[0].Load(), opens[1].Load()}
		deadline := time.Now().Add(10 * time.Second)
		for opens[0].Load() < base[0]+n || opens[1].Load() < base[1]+n {
			if time.Now().After(deadline) {
				t.Fatal("the connections stopped opening")
			}
			time.Sleep(time.Millisecond)
		}
	}
	check := func(members []string, bound int) {
		t.Helper()
		placement := ring.Of(members...)
		srv.aggMu.Lock()
		defer srv.aggMu.Unlock()
		own := srv.own.current()
		if got := srv.agg.Probation(own); got != bound {
			t.Errorf("view %v: probation bound %d, want %d", members, got, bound)
		}
		for id, n := trace.FileID(0), srv.ids.Len(); int(id) < n; id++ {
			p := srv.ids.Path(id)
			want := placement.Owner(p) == self
			if got := own == nil || own.Owns(id); got != want {
				t.Errorf("view %v: owns %s = %v, the ring says %v", members, p, got, want)
			}
		}
	}
	steps := []struct {
		members []string
		bound   int
	}{
		{[]string{self}, 30},
		{[]string{self, "x:2"}, 15},
		{[]string{self, "x:2", "y:3"}, 10},
		{[]string{self, "x:2", "z:4"}, 10},
	}
	for i, step := range steps {
		if i > 0 {
			if applied, err := views.ApplyView(uint64(i+1), step.members); !applied || err != nil {
				t.Fatalf("view %v: applied %v, %v", step.members, applied, err)
			}
		}
		waitOpens(50)
		check(step.members, step.bound)
	}
	stop.Store(true)
	wg.Wait()

	// Two chains, a → m1 … m9 and b → n1 … n9, learned from history alone
	// (no member is ever demanded) over files the walks never reached, so
	// none is resident; each is staged by a demand of its anchor, the
	// first under the view {me, x, y}, the second under {me, x, z}.
	v1 := []string{self, "x:2", "y:3"}
	v2 := []string{self, "x:2", "z:4"}
	r1, r2 := ring.Of(v1...), ring.Of(v2...)
	used := make(map[string]bool)
	pick := func(n int, want func(p string) bool) []string {
		t.Helper()
		var out []string
		for i := files - 1; i >= walked && len(out) < n; i-- {
			if p := paths[i]; !used[p] && want(p) {
				out = append(out, p)
				used[p] = true
			}
		}
		if len(out) < n {
			t.Fatalf("found %d of %d files", len(out), n)
		}
		return out
	}
	mine := func(r *ring.Ring) func(string) bool { return func(p string) bool { return r.Owner(p) == self } }
	not := func(f func(string) bool) func(string) bool { return func(p string) bool { return !f(p) } }
	both := func(f, g func(string) bool) func(string) bool { return func(p string) bool { return f(p) && g(p) } }
	anyFile := func(string) bool { return true }
	chain1 := append(pick(5, mine(r1)), pick(4, not(mine(r1)))...)
	gained, lost := pick(3, both(mine(r2), not(mine(r1)))), pick(3, both(mine(r1), not(mine(r2))))
	chain2 := append(append(gained, lost...), pick(3, both(not(mine(r1)), not(mine(r2))))...)

	o := dialRawOpener(t, addr)
	for k, run := range []struct {
		members []string
		placed  *ring.Ring
		chain   []string
	}{{v1, r1, chain1}, {v2, r2, chain2}} {
		epoch := uint64(len(steps) + 1 + k)
		if applied, err := views.ApplyView(epoch, run.members); !applied || err != nil {
			t.Fatalf("view %v: applied %v, %v", run.members, applied, err)
		}
		anchor, filler := pick(1, anyFile)[0], pick(1, anyFile)[0]
		if err := o.open(filler, append([]string{anchor}, run.chain...)...); err != nil {
			t.Fatal(err)
		}
		if err := o.open(anchor); err != nil {
			t.Fatal(err)
		}
		held := residents(srv, run.chain)
		for _, p := range run.chain {
			if want := run.placed.Owner(p) == self; held[p] != want {
				t.Errorf("view %v: staged %s = %v, owned = %v", run.members, p, held[p], want)
			}
		}
	}
}

// seriesValue reads the one sample of a series from reg.
func seriesValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("no series %s", name)
	return 0
}

// TestPeerHintStagesOnlyOwnedFiles: a stage hint is advice its receiver
// checks against its own view, since the sender's may be another epoch's.
// It stages, on its probation list, the hinted files it owns, drops the
// ones another member owns and the ones its store never held, learns
// nothing, counts no request and answers with an empty ack. A demand of a
// hinted file is a hit, counted once in PeerHintHits and
// core_cache_peer_hint_hits_total; fsnet_server_peer_hints_received_total
// counts every path the hint carried.
func TestPeerHintStagesOnlyOwnedFiles(t *testing.T) {
	const self, files = "me:1", 60
	members := []string{self, "peer:2", "peer:3"}
	placement := ring.Of(members...)
	reg := obs.NewRegistry()
	srv, addr := startServer(t, seededStore(t, files), ServerConfig{GroupSize: 5, CacheCapacity: 100, Views: newTestViews(self, 1, members...), Obs: reg})
	var all, mine, theirs []string
	for i := 0; i < files; i++ {
		p := fmt.Sprintf("/data/f%03d", i)
		all = append(all, p)
		if placement.Owner(p) == self {
			mine = append(mine, p)
		} else {
			theirs = append(theirs, p)
		}
	}
	hint := append(append(slices.Clone(mine[:4]), theirs[:4]...), "/no/such/file")
	client, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.PeerHint(nil, hint); err != nil {
		t.Fatal(err)
	}
	held := residents(srv, all)
	for _, p := range all {
		if want := slices.Contains(mine[:4], p); held[p] != want {
			t.Errorf("after the hint, %s staged = %v, want %v", p, held[p], want)
		}
	}
	st := srv.Stats()
	if st.PeerHintsReceived != uint64(len(hint)) || st.Requests != 0 || st.Cache.Hits+st.Cache.Misses != 0 || st.Cache.Loads != 4 {
		t.Errorf("after the hint: %+v; want %d paths received, 4 loads, no request or demand", st, len(hint))
	}
	if observed := func() uint64 {
		srv.lockAgg()
		defer srv.aggMu.Unlock()
		return srv.agg.Tracker().Observed()
	}(); observed != 0 {
		t.Errorf("the hint taught the tracker %d accesses", observed)
	}
	o := dialRawOpener(t, addr)
	for _, p := range []string{mine[0], mine[0]} {
		if err := o.open(p); err != nil {
			t.Fatal(err)
		}
	}
	if st := srv.Stats(); st.Cache.Hits != 2 || st.PeerHintHits != 1 {
		t.Errorf("two demands of a hinted file: %d hits, %d on hinted files; want 2 and 1", st.Cache.Hits, st.PeerHintHits)
	}
	if got := seriesValue(t, reg, "core_cache_peer_hint_hits_total"); got != 1 {
		t.Errorf("core_cache_peer_hint_hits_total = %v, want 1", got)
	}
	if got := seriesValue(t, reg, "fsnet_server_peer_hints_received_total"); got != float64(len(hint)) {
		t.Errorf("fsnet_server_peer_hints_received_total = %v, want %d", got, len(hint))
	}
}

// TestGapFlagForgetsTheSource: an open whose history carries the gap flag
// makes the server forget what its connection opened last, so it learns
// no succession across the entries the client shed, and learns the
// history's own successions as ever.
func TestGapFlagForgetsTheSource(t *testing.T) {
	for _, gap := range []bool{false, true} {
		t.Run(fmt.Sprintf("gap-%v", gap), func(t *testing.T) {
			srv, addr := startServer(t, seededStore(t, 8), ServerConfig{GroupSize: 3})
			o := dialRawOpener(t, addr)
			if err := o.open("/data/f000"); err != nil {
				t.Fatal(err)
			}
			o.next++
			payload := encodeOpenRequest(openRequest{Path: "/data/f002", Accessed: []string{"/data/f001"}, Gap: gap})
			if err := putFrameID(o.rc.w, msgOpen, o.next, payload); err != nil {
				t.Fatal(err)
			}
			if err := o.rc.w.Flush(); err != nil {
				t.Fatal(err)
			}
			for {
				typ, _, _, err := readFrameID(o.rc.r, nil)
				if err != nil {
					t.Fatal(err)
				}
				if typ == msgGroupEnd {
					break
				}
			}
			srv.lockAgg()
			srv.aggMu.Unlock()
			var want []string
			if !gap {
				want = []string{"/data/f001"}
			}
			if got := successorPaths(srv, "/data/f000"); !slices.Equal(got, want) {
				t.Errorf("successors of f000 = %v, want %v", got, want)
			}
			if got := successorPaths(srv, "/data/f001"); !slices.Equal(got, []string{"/data/f002"}) {
				t.Errorf("successors of f001 = %v, want [/data/f002]", got)
			}
		})
	}
}

// TestRecentHintsAreNotRepeated: a node hands a file to its owner as a
// stage hint at most once in hintRecent deep builds, since a re-hint that
// soon finds it still resident there; after the window it hints it again,
// and a new epoch starts the window over.
func TestRecentHintsAreNotRepeated(t *testing.T) {
	const self = "me:1"
	members := []string{self, "peer:2", "peer:3"}
	placement := ring.Of(members...)
	views := newTestViews(self, 1, members...)
	var got []string
	views.hints = func(_ string, paths []string, _ int) { got = append(got, paths...) }
	ids := trace.NewSyncInterner()
	var theirs, other []trace.FileID
	for i := 0; len(theirs) < 2 || len(other) < 1; i++ {
		p := fmt.Sprintf("/data/f%03d", i)
		switch {
		case placement.Owner(p) == self:
		case len(theirs) < 2:
			theirs = append(theirs, ids.Intern(p))
		default:
			other = append(other, ids.Intern(p))
		}
	}
	o := &ownership{views: views, ids: ids}
	build := func(files []trace.FileID) []string {
		got = got[:0]
		o.current()
		o.hint(files, 10)
		return slices.Clone(got)
	}
	if n := len(build(theirs)); n != 2 {
		t.Fatalf("first build hinted %d paths, want 2", n)
	}
	if n := len(build(theirs)); n != 0 {
		t.Errorf("the same build again hinted %d paths, want none", n)
	}
	for i := 0; i < hintRecent-3; i++ {
		build(other)
	}
	if n := len(build(theirs)); n != 0 {
		t.Errorf("a build %d builds later hinted %d paths, want none", hintRecent-1, n)
	}
	if n := len(build(theirs)); n != 2 {
		t.Errorf("a build %d builds later hinted %d paths, want 2", hintRecent, n)
	}
	views.mu.Lock()
	views.epoch++
	views.mu.Unlock()
	if n := len(build(theirs)); n != 2 {
		t.Errorf("the first build of a new epoch hinted %d paths, want 2", n)
	}
}
