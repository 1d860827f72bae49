package successor

import (
	"cmp"
	"slices"

	"aggcache/internal/trace"
)

// Tracker consumes a file-access sequence and maintains the per-file
// successor lists plus the access counts used for weighting. It is the
// online component the aggregating cache (and the server in fsnet) embeds:
// one Observe call per open event, O(list capacity) work.
//
// Tracker is not safe for concurrent use; callers that share one across
// goroutines (e.g. a network server) must serialize access.
type Tracker struct {
	policy   Policy
	capacity int
	lambda   float64
	// lists and counts are dense per-file tables indexed by FileID —
	// interned IDs are assigned densely in first-use order, so direct
	// indexing replaces the map hashing that used to dominate the
	// Observe hot path. Slots for never-seen ids are nil/zero.
	lists   []*List
	counts  []uint64
	tracked int // number of non-nil lists
	// slab is the unused tail of the current block of List structs and
	// arena the chunks their entries are carved from: first sight of a
	// file costs no heap object of its own. A List never moves, so the
	// pointers in lists (and the ones List hands out) stay valid.
	slab  []List
	arena entryArena
	// prev and hasPrev are source 0's predecessor context: the stream
	// Observe records.
	prev     trace.FileID
	hasPrev  bool
	observed uint64
	// prevBySrc holds every other source's predecessor context for
	// ObserveFrom: the paper's §2.2 asks whether events should be
	// differentiated "based on the identity of the driving client,
	// program, user, or process" - interleaved sources otherwise
	// manufacture transitions that never happened on any machine.
	prevBySrc map[uint64]trace.FileID
}

// NewTracker returns a tracker whose per-file lists use the given policy
// and capacity. PolicyDecay uses DefaultDecay; use NewDecayTracker for an
// explicit factor.
func NewTracker(policy Policy, capacity int) (*Tracker, error) {
	// Validate eagerly so Observe never fails.
	if _, err := NewList(policy, capacity); err != nil {
		return nil, err
	}
	t := &Tracker{policy: policy, capacity: capacity}
	if policy == PolicyDecay {
		t.lambda = DefaultDecay
	}
	return t, nil
}

// NewDecayTracker returns a tracker whose lists use PolicyDecay with an
// explicit decay factor.
func NewDecayTracker(capacity int, lambda float64) (*Tracker, error) {
	if _, err := NewDecayList(capacity, lambda); err != nil {
		return nil, err
	}
	return &Tracker{policy: PolicyDecay, capacity: capacity, lambda: lambda}, nil
}

// Observe records the next file access in the sequence: it increments the
// file's access count and registers it as the immediate successor of the
// previously observed file. The sequence is source 0's: Observe(id) is
// ObserveFrom(0, id).
func (t *Tracker) Observe(id trace.FileID) {
	t.observed++
	t.bumpCount(id)
	if t.hasPrev {
		t.listFor(t.prev).Observe(id)
	}
	t.prev = id
	t.hasPrev = true
}

// bumpCount increments id's dense access-count slot, growing the table
// on first sight of a high id.
func (t *Tracker) bumpCount(id trace.FileID) {
	if int(id) >= len(t.counts) {
		t.counts = trace.GrowDense(t.counts, id)
	}
	t.counts[id]++
}

// ObserveFrom records accesses attributed to a specific source (a client,
// user or process), oldest first: each transition is taken against the
// source's own previous access, while the successor lists and counts
// remain shared. Use this when one tracker ingests interleaved streams,
// e.g. a server learning from several clients at once. A run of accesses
// is one call — a request's whole piggybacked history — so the source's
// context is read and written once, not once per access. Source 0 is
// the stream Observe records, and keeps its context without a map.
func (t *Tracker) ObserveFrom(src uint64, ids ...trace.FileID) {
	if len(ids) == 0 {
		return
	}
	prev, ok := t.Last(src)
	for _, id := range ids {
		t.observed++
		t.bumpCount(id)
		if ok {
			t.listFor(prev).Observe(id)
		}
		prev, ok = id, true
	}
	switch {
	case src == 0:
		t.prev, t.hasPrev = prev, true
	case t.prevBySrc == nil:
		t.prevBySrc = map[uint64]trace.FileID{src: prev}
	default:
		t.prevBySrc[src] = prev
	}
}

// Last returns the source's last observed access: the predecessor of the
// next access ObserveFrom records for it.
func (t *Tracker) Last(src uint64) (trace.FileID, bool) {
	if src == 0 {
		return t.prev, t.hasPrev
	}
	id, ok := t.prevBySrc[src]
	return id, ok
}

// ForgetSource drops a source's predecessor context (e.g. when its
// connection closes); its contributions to the shared lists remain.
func (t *Tracker) ForgetSource(src uint64) {
	if src == 0 {
		t.hasPrev = false
	}
	delete(t.prevBySrc, src)
}

// ObserveAll feeds a whole sequence through Observe.
func (t *Tracker) ObserveAll(seq []trace.FileID) {
	for _, id := range seq {
		t.Observe(id)
	}
}

// Reset clears every predecessor context (e.g. at a session boundary)
// without discarding accumulated metadata.
func (t *Tracker) Reset() {
	t.hasPrev = false
	t.prevBySrc = nil
}

// List returns the successor list for id, or nil if id has never been seen
// in predecessor position. The returned list is live; callers must not
// mutate it concurrently with Observe.
func (t *Tracker) List(id trace.FileID) *List {
	if int(id) >= len(t.lists) {
		return nil
	}
	return t.lists[id]
}

// Successors returns id's candidate successors, best first. The slice is
// freshly allocated; hot paths use AppendSuccessors with a reused buffer.
func (t *Tracker) Successors(id trace.FileID) []trace.FileID {
	if l := t.List(id); l != nil {
		return l.Ranked()
	}
	return nil
}

// AppendSuccessors appends id's candidate successors, best first, to dst
// and returns the extended slice, allocating nothing when dst has spare
// capacity.
func (t *Tracker) AppendSuccessors(dst []trace.FileID, id trace.FileID) []trace.FileID {
	return t.AppendLikely(dst, id, 0)
}

// AppendLikely is AppendSuccessors keeping only the successors whose count
// is more than share of the counts id's list retains (List.AppendLikely).
// The group builder calls this once per chain step, so it must stay off
// the heap.
func (t *Tracker) AppendLikely(dst []trace.FileID, id trace.FileID, share float64) []trace.FileID {
	if l := t.List(id); l != nil {
		return l.AppendLikely(dst, share)
	}
	return dst
}

// First returns id's most likely immediate successor.
func (t *Tracker) First(id trace.FileID) (trace.FileID, bool) {
	if l := t.List(id); l != nil {
		return l.First()
	}
	return 0, false
}

// AccessCount returns how many times id has been observed.
func (t *Tracker) AccessCount(id trace.FileID) uint64 {
	if int(id) >= len(t.counts) {
		return 0
	}
	return t.counts[id]
}

// Hottest returns every observed file by access count descending, id
// ascending on ties: the order of CompareHeat.
func (t *Tracker) Hottest() []trace.FileID {
	var out []trace.FileID
	for id, n := range t.counts {
		if n != 0 {
			out = append(out, trace.FileID(id))
		}
	}
	slices.SortFunc(out, t.CompareHeat)
	return out
}

// CompareHeat is Hottest's order as a slices.SortFunc comparator: access
// count descending, id ascending on ties. Covers sort their seeds with it.
func (t *Tracker) CompareHeat(a, b trace.FileID) int {
	if ca, cb := t.AccessCount(a), t.AccessCount(b); ca != cb {
		return cmp.Compare(cb, ca)
	}
	return cmp.Compare(a, b)
}

// Observed returns the total number of observations.
func (t *Tracker) Observed() uint64 { return t.observed }

// TrackedFiles returns how many files have successor lists.
func (t *Tracker) TrackedFiles() int { return t.tracked }

// MetadataEntries returns the total number of retained successor entries —
// the paper's measure of metadata cost (§4.4 argues it stays tiny).
func (t *Tracker) MetadataEntries() int {
	var n int
	for _, l := range t.lists {
		if l != nil {
			n += l.Len()
		}
	}
	return n
}

// listSlab is how many List structs one slab allocation holds.
const listSlab = 256

func (t *Tracker) listFor(id trace.FileID) *List {
	if int(id) >= len(t.lists) {
		t.lists = trace.GrowDense(t.lists, id)
	}
	if l := t.lists[id]; l != nil {
		return l
	}
	if len(t.slab) == 0 {
		t.slab = make([]List, listSlab)
	}
	l := &t.slab[0]
	t.slab = t.slab[1:]
	// NewTracker validated the configuration against NewList.
	*l = List{policy: t.policy, capacity: t.capacity, lambda: t.lambda, arena: &t.arena}
	t.lists[id] = l
	t.tracked++
	return l
}
