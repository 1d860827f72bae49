package cluster

import (
	"time"

	"aggcache/internal/fsnet"
)

// Mirror cache defaults: capacity in whole groups, TTL per group.
const (
	defaultMirrorCapacity = 128
	defaultMirrorTTL      = 5 * time.Second
)

// mirror is the node-level hot-group cache. It stores whole peer-fetched
// groups, indexed under every member path, so an open of any file in an
// already-mirrored group is a local answer — the group-affinity payoff a
// per-file cache would forfeit. Entries expire after a TTL because
// groups evolve as the owner keeps learning; a mirror that never aged
// would pin a remote group's first observed shape forever.
//
// Hotspot motivation: consistent hashing places each path on exactly one
// owner, so a skewed workload concentrates on one peer. The mirror
// absorbs repeat opens of hot groups at the requesting node, turning a
// per-open peer hop into one hop per group per TTL window.
type mirror struct {
	capacity int
	ttl      time.Duration // <0 means entries never expire
	now      func() time.Time

	entries map[string]memberRef // member path -> its group
	// lru is the sentinel of the recency ring: lru.next is the most
	// recently used group, lru.prev the eviction victim.
	lru mirrorEntry
	n   int
	// free chains (through next) the structs of dropped groups for put to
	// reuse: a full mirror drops one group per group it takes in.
	free *mirrorEntry

	hits, misses, expired, evicted uint64
}

// mirrorEntry is one mirrored group: the very frames the forward read
// from the owner, held by one reference the entry takes at put and gives
// up when it is dropped. Replies still being written from the group hold
// their own, so dropping the entry recycles the group only once the last
// of them is on the wire.
type mirrorEntry struct {
	group  *fsnet.Group
	stored time.Time
	// owner is the peer the group was fetched from, so a membership
	// change that removes the peer can purge its groups (the new owner
	// may build the group differently; serving the departed peer's
	// shape until TTL would hide the rebalance).
	owner string

	prev, next *mirrorEntry
}

// memberRef is one member path's index slot: its group and its place in
// it, which is the lead index an open of the member replies with.
type memberRef struct {
	ent  *mirrorEntry
	lead int
}

// newMirror returns a mirror with cfg-normalized knobs, or nil when the
// mirror is disabled (capacity < 0). A nil *mirror is a valid receiver
// for get/put/stats: every operation is a no-op miss.
func newMirror(capacity int, ttl time.Duration, now func() time.Time) *mirror {
	if capacity < 0 {
		return nil
	}
	if capacity == 0 {
		capacity = defaultMirrorCapacity
	}
	if ttl == 0 {
		ttl = defaultMirrorTTL
	}
	m := &mirror{
		capacity: capacity,
		ttl:      ttl,
		now:      now,
		entries:  make(map[string]memberRef),
	}
	m.lru.prev, m.lru.next = &m.lru, &m.lru
	return m
}

// get returns the mirrored group containing path and path's index in it
// — the reply leads with that file and follows with the rest in arrival
// order — or nil on miss/expiry. The caller owns one reference to the
// group, retained here while the entry is indexed, and shares the group
// read-only with the mirror and every other reply served from it.
//
// Callers hold the node mutex; the mirror has no lock of its own.
func (m *mirror) get(path string) (g *fsnet.Group, lead int) {
	if m == nil {
		return nil, 0
	}
	ref, ok := m.entries[path]
	if !ok {
		m.misses++
		return nil, 0
	}
	ent := ref.ent
	if m.ttl >= 0 && m.now().Sub(ent.stored) > m.ttl {
		m.removeEntry(ent)
		m.expired++
		m.misses++
		return nil, 0
	}
	m.unlink(ent)
	m.pushFront(ent)
	m.hits++
	ent.group.Retain()
	return ent.group, ref.lead
}

// put mirrors a freshly fetched group under all its member paths,
// evicting least-recently-used groups beyond capacity. A member path
// already indexed for another group is re-pointed here — newest group
// wins, mirroring how the owner's own group evolves. owner records the
// peer the group came from, for purgeOwner. The mirror takes a reference
// of its own; the caller keeps the one it came with.
func (m *mirror) put(g *fsnet.Group, owner string) {
	if m == nil || len(g.Files) == 0 {
		return
	}
	g.Retain()
	ent := m.free
	if ent != nil {
		m.free, ent.next = ent.next, nil
	} else {
		ent = new(mirrorEntry)
	}
	ent.group, ent.stored, ent.owner = g, m.now(), owner
	m.pushFront(ent)
	for i, f := range g.Files {
		if old, ok := m.entries[f.Path]; ok && old.ent != ent {
			m.unindex(old.ent, f.Path)
		}
		m.entries[f.Path] = memberRef{ent: ent, lead: i}
	}
	for m.n > m.capacity {
		m.evicted++
		m.removeEntry(m.lru.prev)
	}
}

// unindex drops one path's index entry for ent, removing the whole group
// once no member still points at it.
func (m *mirror) unindex(ent *mirrorEntry, path string) {
	delete(m.entries, path)
	for _, f := range ent.group.Files {
		if f.Path != path && m.entries[f.Path].ent == ent {
			return // still reachable through another member
		}
	}
	m.drop(ent)
}

// removeEntry drops a group and every member index pointing at it.
func (m *mirror) removeEntry(ent *mirrorEntry) {
	for _, f := range ent.group.Files {
		if m.entries[f.Path].ent == ent {
			delete(m.entries, f.Path)
		}
	}
	m.drop(ent)
}

// purgeOwner drops every group fetched from owner — called when a
// membership change removes the peer, so its groups don't outlive it.
func (m *mirror) purgeOwner(owner string) {
	if m == nil {
		return
	}
	var next *mirrorEntry
	for e := m.lru.next; e != &m.lru; e = next {
		next = e.next
		if e.owner == owner {
			m.removeEntry(e)
		}
	}
}

// groups returns how many distinct groups are resident.
func (m *mirror) groups() int {
	if m == nil {
		return 0
	}
	return m.n
}

// retainedBytes returns the frame buffer capacity the resident groups pin.
func (m *mirror) retainedBytes() int {
	if m == nil {
		return 0
	}
	n := 0
	for e := m.lru.next; e != &m.lru; e = e.next {
		n += e.group.RetainedBytes()
	}
	return n
}

func (m *mirror) pushFront(ent *mirrorEntry) {
	ent.prev, ent.next = &m.lru, m.lru.next
	ent.prev.next, ent.next.prev = ent, ent
	m.n++
}

func (m *mirror) unlink(ent *mirrorEntry) {
	ent.prev.next, ent.next.prev = ent.next, ent.prev
	m.n--
}

// drop unlinks a group no index entry points at any more, gives up the
// mirror's reference to it — replies may hold theirs a while longer — and
// keeps the entry's struct for reuse.
func (m *mirror) drop(ent *mirrorEntry) {
	m.unlink(ent)
	ent.group.Release()
	*ent = mirrorEntry{next: m.free}
	m.free = ent
}
