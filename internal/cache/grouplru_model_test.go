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
// two plain slices, most recently used first, written from the rule rather
// than from GroupLRU's lists: the demanded file enters at the head of
// order, other non-resident members at its tail (or its head), or, when
// staged, at the head of prob in rank order; room is made by evicting the
// oldest file outside the group — from prob while it holds the bound or
// more, else from order, else from prob — or, for the demanded file alone,
// the oldest file at all; members that find no room are dropped in rank
// order. A demand moves a file from either slice to the head of order.
type groupModel struct {
	cap     int
	order   []modelEntry
	prob    []modelEntry
	evicted []modelEntry
}

func (m *groupModel) len() int { return len(m.order) + len(m.prob) }

// find reports which slice holds id and where, or a nil slice.
func (m *groupModel) find(id trace.FileID) (*[]modelEntry, int) {
	for _, s := range []*[]modelEntry{&m.order, &m.prob} {
		if i := slices.IndexFunc(*s, func(e modelEntry) bool { return e.id == id }); i >= 0 {
			return s, i
		}
	}
	return nil, -1
}

// take removes a resident id, reporting whether it was and its flag.
func (m *groupModel) take(id trace.FileID) (resident, speculative bool) {
	s, i := m.find(id)
	if s == nil {
		return false, false
	}
	speculative = (*s)[i].speculative
	*s = slices.Delete(*s, i, i+1)
	return true, speculative
}

func (m *groupModel) demand(id trace.FileID) (hit, speculative bool) {
	if hit, speculative = m.take(id); hit {
		m.order = slices.Insert(m.order, 0, modelEntry{id: id})
	}
	return hit, speculative
}

// evictFrom evicts the oldest entry of s not in group (any entry for a nil
// group), reporting false when there is none.
func (m *groupModel) evictFrom(s *[]modelEntry, group []trace.FileID) bool {
	for i := len(*s) - 1; i >= 0; i-- {
		if !slices.Contains(group, (*s)[i].id) {
			m.evicted = append(m.evicted, (*s)[i])
			*s = slices.Delete(*s, i, i+1)
			return true
		}
	}
	return false
}

func (m *groupModel) evictOutside(group []trace.FileID, bound int) bool {
	return len(m.prob) >= bound && m.evictFrom(&m.prob, group) ||
		m.evictFrom(&m.order, group) || m.evictFrom(&m.prob, group)
}

func (m *groupModel) placeDemanded(group []trace.FileID, bound int) {
	if resident, _ := m.take(group[0]); !resident {
		for m.len() >= m.cap && (m.evictOutside(group, bound) || m.evictOutside(nil, bound)) {
		}
	}
	m.order = slices.Insert(m.order, 0, modelEntry{id: group[0]})
}

// place runs a group's members through the rule; staged members enter
// prob, the others order.
func (m *groupModel) place(group []trace.FileID, head, staged bool, bound int) (admitted int) {
	m.placeDemanded(group, bound)
	return m.placeMembers(group, group[1:], head, staged, bound)
}

// placeMembers runs members, which belong to group, through the rule.
func (m *groupModel) placeMembers(group, members []trace.FileID, head, staged bool, bound int) (admitted int) {
	for _, id := range members {
		if s, _ := m.find(id); s != nil {
			continue
		}
		if m.len() >= m.cap && !m.evictOutside(group, bound) {
			break
		}
		e := modelEntry{id: id, speculative: true}
		switch {
		case staged:
			m.prob = slices.Insert(m.prob, admitted, e)
		case head:
			m.order = slices.Insert(m.order, 0, e)
		default:
			m.order = append(m.order, e)
		}
		admitted++
	}
	return admitted
}

func (m *groupModel) install(group []trace.FileID, head bool) int {
	return m.place(group, head, false, m.cap)
}

func (m *groupModel) stage(group []trace.FileID, probation int) int {
	return m.place(group, false, true, probation)
}

// stageMembers is stage with no demanded file: every file of group is a
// member.
func (m *groupModel) stageMembers(group []trace.FileID, probation int) int {
	return m.placeMembers(group, group, false, true, probation)
}

// groupOp is Install(group, head) when group is set — Stage(group,
// probation) when stage is, StageMembers(group, probation) when members
// is too — and Demand(demand) otherwise.
type groupOp struct {
	group     []trace.FileID
	head      bool
	stage     bool
	members   bool
	probation int
	demand    trace.FileID
}

// residentEntries lists the recency list of g most recent first, with the
// flags.
func residentEntries(g *GroupLRU) []modelEntry { return listEntries(g.lru, &g.lru.links) }

// probationEntries lists the probation list of g most recent first.
func probationEntries(g *GroupLRU) []modelEntry { return listEntries(g.lru, &g.lru.probation) }

func listEntries(l *LRU, s *links) []modelEntry {
	var out []modelEntry
	for i := s.head; i != none; i = l.nodes[i].next {
		out = append(out, modelEntry{id: l.nodes[i].id, speculative: l.nodes[i].speculative})
	}
	return out
}

// checkGroupLRU runs ops through a GroupLRU and the model side by side and
// fails at the first op after which they disagree on a result, the order
// of either list, a speculative flag, residency of a file the op named, or
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
		switch {
		case op.members:
			got, want := g.StageMembers(op.group, op.probation), m.stageMembers(op.group, op.probation)
			if got != want {
				t.Fatalf("op %d: StageMembers(%v, %d) admitted %d, model %d", k, op.group, op.probation, got, want)
			}
		case op.stage:
			got, want := g.Stage(op.group, op.probation), m.stage(op.group, op.probation)
			if got != want {
				t.Fatalf("op %d: Stage(%v, %d) admitted %d, model %d", k, op.group, op.probation, got, want)
			}
		case op.group != nil:
			got, want := g.Install(op.group, op.head), m.install(op.group, op.head)
			if got != want {
				t.Fatalf("op %d: Install(%v, head=%v) admitted %d, model %d", k, op.group, op.head, got, want)
			}
		default:
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
		if got := probationEntries(g); !slices.Equal(got, m.prob) || g.lru.probLen != len(m.prob) {
			t.Fatalf("op %d: probation %v (%d), model %v", k, got, g.lru.probLen, m.prob)
		}
		if !slices.Equal(evicted, m.evicted) {
			t.Fatalf("op %d: evictions %v, model %v", k, evicted, m.evicted)
		}
		if g.Len() != m.len() || g.Evictions() != uint64(len(m.evicted)) {
			t.Fatalf("op %d: Len/Evictions = %d/%d, model %d/%d", k, g.Len(), g.Evictions(), m.len(), len(m.evicted))
		}
		for _, id := range named {
			if s, _ := m.find(id); g.Contains(id) != (s != nil) {
				t.Fatalf("op %d: Contains(%d) = %v, model disagrees", k, id, g.Contains(id))
			}
		}
	}
}

// farID maps k to an id far beyond the slot table a small universe grows.
func farID(k int) trace.FileID { return trace.FileID(10_000 + k*7_919) }

// randomGroupOps draws n ops on a cache of the given capacity: groups
// larger than the cache, repeated members, demands of residents and
// strangers, and ids far past the current slot table. Stage ops, with
// probation bounds from 0 to the capacity, are drawn only when staged is
// set.
func randomGroupOps(rng *rand.Rand, capacity, n int, staged bool) []groupOp {
	id := func() trace.FileID {
		if rng.Intn(6) == 0 {
			return farID(rng.Intn(64))
		}
		return trace.FileID(rng.Intn(3 * capacity))
	}
	ops := make([]groupOp, n)
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
		if staged && rng.Intn(2) == 0 {
			ops[k] = groupOp{group: group, stage: true, probation: rng.Intn(capacity + 1)}
			ops[k].members = rng.Intn(3) == 0
		}
	}
	return ops
}

// TestGroupLRUMatchesModel drives random ops through GroupLRU and the
// model: Install with head and tail placement, Stage and StageMembers
// with every probation bound, and Demand, interleaved.
func TestGroupLRUMatchesModel(t *testing.T) {
	staged, members := 0, 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(12)
		ops := randomGroupOps(rng, capacity, 400, true)
		for _, op := range ops {
			switch {
			case op.members:
				members++
			case op.stage:
				staged++
			}
		}
		checkGroupLRU(t, capacity, ops)
	}
	if staged == 0 || members == 0 {
		t.Errorf("%d Stage and %d StageMembers ops drawn; want both", staged, members)
	}
}

// TestInstallAndDemandNeverTouchProbation: a GroupLRU used only through
// Install and Demand, as every client and every paper figure use it, never
// puts a file on the probation list, so Stage leaves their behaviour as it
// was.
func TestInstallAndDemandNeverTouchProbation(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(12)
		g, err := NewGroupLRU(capacity)
		if err != nil {
			t.Fatal(err)
		}
		for k, op := range randomGroupOps(rng, capacity, 400, false) {
			if op.group != nil {
				g.Install(op.group, op.head)
			} else {
				g.Demand(op.demand)
			}
			if l := g.lru; l.probLen != 0 || l.probation.head != none || l.probation.tail != none {
				t.Fatalf("seed %d op %d: probation holds %d files (head %d)", seed, k, l.probLen, l.probation.head)
			}
		}
	}
}

// FuzzGroupLRU checks GroupLRU against the model on op strings decoded
// from the input: the first byte picks the capacity (1..8); then each op
// byte's low bit picks Demand (one id byte follows) or a group, whose size
// (1..16) is bits 1-4, its id bytes following. Bit 6 makes the group a
// Stage with a probation bound of bits 5 and 7 (0..3) — a StageMembers
// when bit 0 of its first id byte is set too; without it, the group is an
// Install with head placement bit 5. An id byte of 0xC0 or more is a far
// id.
func FuzzGroupLRU(f *testing.F) {
	f.Add([]byte{3, 0x03, 1, 2, 0x07, 3, 4, 5, 0x00, 4, 0x23, 9, 1})
	f.Add([]byte{0, 0x1f, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 0x02, 0xc5})
	f.Add([]byte{7, 0x25, 0xf0, 1, 0xf0, 0x00, 0xf0, 0x05, 2, 0xc1, 2})
	f.Add([]byte{4, 0x45, 1, 2, 3, 0xc7, 4, 5, 6, 7, 0x00, 3, 0x65, 8, 9, 1, 0x02, 2})
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
			members := len(data) > 0 && data[0]&1 != 0
			for j := range group {
				group[j] = id()
			}
			if b&0x40 != 0 {
				ops = append(ops, groupOp{group: group, stage: true, members: members, probation: int(b>>5&1 | b>>6&2)})
				continue
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
