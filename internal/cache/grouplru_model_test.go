package cache

import (
	"math/rand"
	"slices"
	"testing"

	"aggcache/internal/alloctest"
	"aggcache/internal/trace"
)

// modelEntry is one resident of groupModel, or one capacity eviction.
type modelEntry struct {
	id          trace.FileID
	speculative bool
}

// groupModel is an executable specification of the §3 placement rule over
// a plain slice, most recently used first, written from the rule rather
// than from GroupLRU's list: the demanded file enters at the head, other
// non-resident members at the tail (or the head), room is made by evicting
// the least recent file outside the group — or, for the demanded file
// alone, the least recent file at all — and members that find no room are
// dropped in rank order.
type groupModel struct {
	cap     int
	order   []modelEntry
	evicted []modelEntry
}

func (m *groupModel) find(id trace.FileID) int {
	return slices.IndexFunc(m.order, func(e modelEntry) bool { return e.id == id })
}

func (m *groupModel) demand(id trace.FileID) (hit, speculative bool) {
	i := m.find(id)
	if i < 0 {
		return false, false
	}
	speculative = m.order[i].speculative
	m.order = slices.Insert(slices.Delete(m.order, i, i+1), 0, modelEntry{id: id})
	return true, speculative
}

// evictOutside evicts the least recent resident not in group (any resident
// for a nil group), reporting false when there is none.
func (m *groupModel) evictOutside(group []trace.FileID) bool {
	for i := len(m.order) - 1; i >= 0; i-- {
		if !slices.Contains(group, m.order[i].id) {
			m.evicted = append(m.evicted, m.order[i])
			m.order = slices.Delete(m.order, i, i+1)
			return true
		}
	}
	return false
}

func (m *groupModel) install(group []trace.FileID, head bool) (admitted int) {
	if i := m.find(group[0]); i >= 0 {
		m.order = slices.Delete(m.order, i, i+1)
	} else {
		for len(m.order) >= m.cap && (m.evictOutside(group) || m.evictOutside(nil)) {
		}
	}
	m.order = slices.Insert(m.order, 0, modelEntry{id: group[0]})
	for _, id := range group[1:] {
		if m.find(id) >= 0 {
			continue
		}
		if len(m.order) >= m.cap && !m.evictOutside(group) {
			break
		}
		e := modelEntry{id: id, speculative: true}
		if head {
			m.order = slices.Insert(m.order, 0, e)
		} else {
			m.order = append(m.order, e)
		}
		admitted++
	}
	return admitted
}

// groupOp is Install(group, head) when group is set, Demand(demand)
// otherwise.
type groupOp struct {
	group  []trace.FileID
	head   bool
	demand trace.FileID
}

// residentEntries lists g's residents most recent first, with their flags.
func residentEntries(g *GroupLRU) []modelEntry {
	l := g.lru
	var out []modelEntry
	for i := l.head; i != none; i = l.nodes[i].next {
		out = append(out, modelEntry{id: l.nodes[i].id, speculative: l.nodes[i].speculative})
	}
	return out
}

// checkGroupLRU runs ops through a GroupLRU and the model side by side and
// fails at the first op after which they disagree on a result, the
// resident order, a speculative flag, residency of a file the op named, or
// the sequence of OnEvict calls.
func checkGroupLRU(t testing.TB, capacity int, ops []groupOp) {
	t.Helper()
	g, err := NewGroupLRU(capacity)
	if err != nil {
		t.Fatal(err)
	}
	var evicted []modelEntry
	g.OnEvict(func(id trace.FileID, speculative bool) {
		evicted = append(evicted, modelEntry{id: id, speculative: speculative})
	})
	m := &groupModel{cap: capacity}
	for k, op := range ops {
		named := op.group
		if op.group != nil {
			got, want := g.Install(op.group, op.head), m.install(op.group, op.head)
			if got != want {
				t.Fatalf("op %d: Install(%v, head=%v) admitted %d, model %d", k, op.group, op.head, got, want)
			}
		} else {
			named = []trace.FileID{op.demand}
			hit, spec := g.Demand(op.demand)
			wantHit, wantSpec := m.demand(op.demand)
			if hit != wantHit || spec != wantSpec {
				t.Fatalf("op %d: Demand(%d) = %v,%v, model %v,%v", k, op.demand, hit, spec, wantHit, wantSpec)
			}
		}
		if got := residentEntries(g); !slices.Equal(got, m.order) {
			t.Fatalf("op %d: residents %v, model %v", k, got, m.order)
		}
		if !slices.Equal(evicted, m.evicted) {
			t.Fatalf("op %d: evictions %v, model %v", k, evicted, m.evicted)
		}
		if g.Len() != len(m.order) || g.Evictions() != uint64(len(m.evicted)) {
			t.Fatalf("op %d: Len/Evictions = %d/%d, model %d/%d", k, g.Len(), g.Evictions(), len(m.order), len(m.evicted))
		}
		for _, id := range named {
			if g.Contains(id) != (m.find(id) >= 0) {
				t.Fatalf("op %d: Contains(%d) = %v, model disagrees", k, id, g.Contains(id))
			}
		}
	}
}

// farID maps k to an id far beyond the slot table a small universe grows.
func farID(k int) trace.FileID { return trace.FileID(10_000 + k*7_919) }

// TestGroupLRUMatchesModel drives random groups through head and tail
// placement: groups larger than the cache, repeated members, demands of
// residents and strangers, and ids far past the current slot table.
func TestGroupLRUMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(12)
		id := func() trace.FileID {
			if rng.Intn(6) == 0 {
				return farID(rng.Intn(64))
			}
			return trace.FileID(rng.Intn(3 * capacity))
		}
		ops := make([]groupOp, 400)
		for k := range ops {
			if rng.Intn(3) == 0 {
				ops[k].demand = id()
				continue
			}
			group := make([]trace.FileID, 1+rng.Intn(capacity+4))
			for j := range group {
				group[j] = id()
			}
			if len(group) > 1 && rng.Intn(4) == 0 {
				group[len(group)-1] = group[rng.Intn(len(group)-1)]
			}
			ops[k] = groupOp{group: group, head: rng.Intn(4) == 0}
		}
		checkGroupLRU(t, capacity, ops)
	}
}

// FuzzGroupLRU checks GroupLRU against the model on op strings decoded
// from the input: the first byte picks the capacity (1..8); then each op
// byte's low bit picks Demand (one id byte follows) or Install, whose
// group size (1..16) is bits 1-4 and head placement bit 5, its id bytes
// following. An id byte of 0xC0 or more is a far id.
func FuzzGroupLRU(f *testing.F) {
	f.Add([]byte{3, 0x03, 1, 2, 0x07, 3, 4, 5, 0x00, 4, 0x23, 9, 1})
	f.Add([]byte{0, 0x1f, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 0x02, 0xc5})
	f.Add([]byte{7, 0x25, 0xf0, 1, 0xf0, 0x00, 0xf0, 0x05, 2, 0xc1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := 1 + int(data[0]%8)
		data = data[1:]
		id := func() trace.FileID {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			if b >= 0xC0 {
				return farID(int(b))
			}
			return trace.FileID(b % 24)
		}
		var ops []groupOp
		for len(data) > 0 {
			b := data[0]
			data = data[1:]
			if b&1 == 0 {
				ops = append(ops, groupOp{demand: id()})
				continue
			}
			group := make([]trace.FileID, 1+int(b>>1&15))
			for j := range group {
				group[j] = id()
			}
			ops = append(ops, groupOp{group: group, head: b&0x20 != 0})
		}
		checkGroupLRU(t, capacity, ops)
	})
}

// TestAllocBudgetGroupLRUInstall pins a fresh group installed on a full
// cache, plus a Demand hit on its demanded file, at zero allocations: the
// evicted nodes are recycled for the newcomers. The ids cycle through a
// universe the set-up has already inserted, so the slot table never grows,
// and slowly enough (a lap is about 100 groups) that every group is fresh.
func TestAllocBudgetGroupLRUInstall(t *testing.T) {
	const capacity, universe, g = 64, 512, 5
	c, err := NewGroupLRU(capacity)
	if err != nil {
		t.Fatal(err)
	}
	c.Install([]trace.FileID{universe - 1}, false)
	group := make([]trace.FileID, g)
	next, stale := 0, 0
	allocs := alloctest.PerOp(t, func() {
		for j := range group {
			group[j] = trace.FileID((next + j) % universe)
		}
		next = (next + g) % universe
		if c.Contains(group[0]) {
			stale++
		}
		c.Install(group, false)
		if hit, _ := c.Demand(group[0]); !hit {
			stale++
		}
	})
	if allocs != 0 {
		t.Errorf("installing a group on a full GroupLRU allocates %.0f objects, budget exactly 0", allocs)
	}
	if stale != 0 || c.Len() != capacity || c.Evictions() == 0 {
		t.Errorf("%d stale ops, Len %d, %d evictions: the pinned op was not a fresh group on a full cache and a hit", stale, c.Len(), c.Evictions())
	}
}
