// Package ring is the consistent-hash ring that places paths on the
// members of a cluster. It is a pure function of the member list, with no
// dependency beyond sort and strconv, so every party that holds the same
// list — the nodes, and the clients that send each miss straight to its
// owner — computes the same placement.
package ring

import (
	"sort"
	"strconv"
)

// defaultReplicas is the virtual-node count per member. 128 points per
// member keeps the largest ownership share within a few tens of percent
// of the mean for small clusters while ring lookups stay a binary search
// over a few hundred points.
const defaultReplicas = 128

// Ring is a consistent-hash ring with virtual nodes. Every member
// contributes `replicas` points; a key is owned by the member whose
// point follows the key's hash clockwise. The construction guarantees
// minimal key movement on membership change: adding a member moves keys
// only onto it, removing a member moves only the keys it owned — in
// expectation K/N keys either way.
//
// Ownership is a pure function of the member set: build order does not
// matter (points sort by hash with owner name as the tie-break), so
// node and client of a cluster computes identical placement from the
// same member list.
//
// A Ring is not safe for concurrent mutation; its users build one per
// membership view and only read it once installed (views are immutable —
// membership change builds a new ring, never edits one).
type Ring struct {
	replicas int
	points   []ringPoint // sorted by (hash, owner)
	members  map[string]struct{}
}

type ringPoint struct {
	hash  uint64
	owner string
}

// New returns an empty ring with the given virtual-node count per
// member (0 selects the default of 128).
func New(replicas int) *Ring {
	if replicas <= 0 {
		replicas = defaultReplicas
	}
	return &Ring{replicas: replicas, members: make(map[string]struct{})}
}

// Of returns the ring of a view's members with the default virtual-node
// count: the one placement clients route by and nodes stage by, so the
// two cannot disagree.
func Of(members ...string) *Ring {
	r := New(0)
	r.Add(members...)
	return r
}

// Add inserts members into the ring. Empty names and names already
// present are ignored.
func (r *Ring) Add(names ...string) {
	for _, name := range names {
		if name == "" {
			continue
		}
		if _, dup := r.members[name]; dup {
			continue
		}
		r.members[name] = struct{}{}
		for i := 0; i < r.replicas; i++ {
			r.points = append(r.points, ringPoint{hash: vnodeHash(name, i), owner: name})
		}
	}
	r.sortPoints()
}

// Remove deletes a member and its points; unknown names are a no-op.
// Keys the member owned fall to their next clockwise point, everything
// else keeps its owner.
func (r *Ring) Remove(name string) {
	if _, ok := r.members[name]; !ok {
		return
	}
	delete(r.members, name)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.owner != name {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

func (r *Ring) sortPoints() {
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].owner < r.points[j].owner
	})
}

// Owner returns the member that owns key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := keyHash(key)
	idx := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if idx == len(r.points) {
		idx = 0 // wrapped past the last point
	}
	return r.points[idx].owner
}

// Members returns the member names in sorted order.
func (r *Ring) Members() []string {
	out := make([]string, 0, len(r.members))
	for name := range r.members {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of members.
func (r *Ring) Len() int { return len(r.members) }

// Has reports whether name is a member.
func (r *Ring) Has(name string) bool {
	_, ok := r.members[name]
	return ok
}

// FNV-1a, 64 bit, finished with the splitmix64 mixer. Inlined rather
// than hash/fnv so the per-open Owner lookup allocates nothing; the
// finalizer matters because raw FNV of short, similar strings (vnode
// labels differ in a digit or two) leaves points clustered enough to
// skew ownership badly.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func keyHash(key string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer: a cheap full-avalanche bijection.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// vnodeHash hashes the i-th virtual node of a member. The ordinal is
// folded in as a decimal prefix plus separator, so member names cannot
// collide with each other's vnode labels.
func vnodeHash(name string, i int) uint64 {
	label := strconv.Itoa(i) + "|" + name
	return keyHash(label)
}
