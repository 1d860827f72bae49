package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"aggcache/internal/fsnet"
)

// tick is a fake clock for mirror TTL and breaker cooldown tests.
type tick struct {
	mu sync.Mutex
	t  time.Time
}

func newTick() *tick { return &tick{t: time.Unix(1000, 0)} }

func (c *tick) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *tick) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// mkGroup builds a group as a forward would hand it over: one reference,
// the caller's.
func mkGroup(paths ...string) *fsnet.Group {
	g := fsnet.NewGroup()
	for _, p := range paths {
		g.Files = append(g.Files, fsnet.GroupFile{Path: p, Data: []byte("data " + p)})
	}
	return g
}

// putNew mirrors a fresh group the way route does — the mirror retains,
// the fetch's own reference goes to the reply — with the reply already
// written: the mirror's reference is the only one left.
func putNew(m *mirror, owner string, paths ...string) {
	g := mkGroup(paths...)
	m.put(g, owner)
	g.Release()
}

// led is get as a reply would serialise it: the demanded file first, the
// rest in arrival order. The reference get handed over is released.
func led(m *mirror, path string) ([]fsnet.GroupFile, bool) {
	g, lead := m.get(path)
	if g == nil {
		return nil, false
	}
	defer g.Release()
	files := append([]fsnet.GroupFile{g.Files[lead]}, g.Files[:lead]...)
	return append(files, g.Files[lead+1:]...), true
}

func TestMirrorIndexesEveryMember(t *testing.T) {
	clk := newTick()
	m := newMirror(4, time.Minute, clk.Now)
	putNew(m, "peer", "/a", "/b", "/c")

	// Anchor lookup returns the group as stored.
	files, ok := led(m, "/a")
	if !ok || len(files) != 3 || files[0].Path != "/a" {
		t.Fatalf("get(/a) = %v, %v", files, ok)
	}
	// Member lookup reorders: demanded path leads, rest keep order.
	files, ok = led(m, "/c")
	if !ok || len(files) != 3 {
		t.Fatalf("get(/c) = %v, %v", files, ok)
	}
	if files[0].Path != "/c" || files[1].Path != "/a" || files[2].Path != "/b" {
		t.Errorf("member get order = %q %q %q", files[0].Path, files[1].Path, files[2].Path)
	}
	if string(files[0].Data) != "data /c" {
		t.Errorf("member data = %q", files[0].Data)
	}
	if _, ok := led(m, "/missing"); ok {
		t.Error("get(/missing) hit")
	}
	if m.hits != 2 || m.misses != 1 {
		t.Errorf("hits=%d misses=%d, want 2/1", m.hits, m.misses)
	}
}

func TestMirrorTTLExpiry(t *testing.T) {
	clk := newTick()
	m := newMirror(4, time.Second, clk.Now)
	putNew(m, "peer", "/a", "/b")
	if _, ok := led(m, "/a"); !ok {
		t.Fatal("fresh entry missed")
	}
	clk.Advance(1500 * time.Millisecond)
	if _, ok := led(m, "/a"); ok {
		t.Error("expired entry still served")
	}
	// Expiry evicts the whole group, every index included.
	if _, ok := led(m, "/b"); ok {
		t.Error("expired group still served via member")
	}
	if m.groups() != 0 {
		t.Errorf("groups = %d after expiry, want 0", m.groups())
	}
	if m.expired != 1 {
		t.Errorf("expired = %d, want 1", m.expired)
	}
}

func TestMirrorNeverExpires(t *testing.T) {
	clk := newTick()
	m := newMirror(4, -1, clk.Now)
	putNew(m, "peer", "/a")
	clk.Advance(1000 * time.Hour)
	if _, ok := led(m, "/a"); !ok {
		t.Error("negative TTL entry expired")
	}
}

func TestMirrorLRUEviction(t *testing.T) {
	clk := newTick()
	m := newMirror(2, time.Minute, clk.Now)
	putNew(m, "peer", "/g1", "/g1.m")
	putNew(m, "peer", "/g2")
	led(m, "/g1") // touch: g2 is now LRU
	putNew(m, "peer", "/g3")
	if _, ok := led(m, "/g2"); ok {
		t.Error("LRU group survived eviction")
	}
	if _, ok := led(m, "/g1"); !ok {
		t.Error("recently used group evicted")
	}
	if _, ok := led(m, "/g3"); !ok {
		t.Error("fresh group evicted")
	}
	if m.evicted != 1 {
		t.Errorf("evicted = %d, want 1", m.evicted)
	}
}

func TestMirrorNewerGroupWinsSharedMember(t *testing.T) {
	clk := newTick()
	m := newMirror(4, time.Minute, clk.Now)
	putNew(m, "peer", "/a", "/shared")
	putNew(m, "peer", "/b", "/shared")
	files, ok := led(m, "/shared")
	if !ok || files[1].Path != "/b" {
		t.Fatalf("shared member resolves to %v, want /b's group", files)
	}
	// /a's group is still reachable through its anchor.
	if files, ok := led(m, "/a"); !ok || len(files) != 2 {
		t.Errorf("get(/a) = %v, %v after member re-point", files, ok)
	}
}

func TestMirrorSingleMemberOverlapDropsOldGroup(t *testing.T) {
	clk := newTick()
	m := newMirror(4, time.Minute, clk.Now)
	putNew(m, "peer", "/solo")
	putNew(m, "peer", "/other", "/solo")
	if m.groups() != 1 {
		t.Errorf("groups = %d, want 1 (old single-member group unreachable)", m.groups())
	}
	files, ok := led(m, "/solo")
	if !ok || files[1].Path != "/other" {
		t.Errorf("get(/solo) = %v, %v", files, ok)
	}
}

func TestMirrorDisabledIsNilSafe(t *testing.T) {
	m := newMirror(-1, 0, newTick().Now)
	if m != nil {
		t.Fatal("capacity < 0 should disable the mirror")
	}
	putNew(m, "peer", "/a")
	if _, ok := led(m, "/a"); ok {
		t.Error("disabled mirror served a hit")
	}
	if m.groups() != 0 {
		t.Error("disabled mirror reports residency")
	}
}

func TestMirrorManyGroups(t *testing.T) {
	clk := newTick()
	m := newMirror(8, time.Minute, clk.Now)
	for i := 0; i < 32; i++ {
		anchor := fmt.Sprintf("/g%02d", i)
		putNew(m, "peer", anchor, anchor+".m1", anchor+".m2")
	}
	if m.groups() != 8 {
		t.Errorf("groups = %d, want capacity 8", m.groups())
	}
	// Index size tracks residency: 3 paths per resident group.
	if len(m.entries) != 24 {
		t.Errorf("index size = %d, want 24", len(m.entries))
	}
	// The newest 8 survive.
	for i := 24; i < 32; i++ {
		if _, ok := led(m, fmt.Sprintf("/g%02d.m2", i)); !ok {
			t.Errorf("recent group g%02d evicted", i)
		}
	}
}
