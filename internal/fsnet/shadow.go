package fsnet

import (
	"sync"

	"aggcache/internal/cache"
	"aggcache/internal/obs"
	"aggcache/internal/trace"
)

// maxShadowCapacity is the largest client cache a server will shadow. The
// handshake answers a hello declaring more with zero and serves it
// unvalidated: the shadow's tables are sized by what a peer claims, so the
// claim is bounded.
const maxShadowCapacity = 1 << 16

// shadow is the server's replay of one connection's client cache, kept so
// that a group member the client already holds unchanged can cross the
// wire as a header instead of as its bytes (DESIGN.md §11).
//
// The client places files through one deterministic rule, cache.GroupLRU,
// and everything that rule is fed reaches the server in order: the hello
// declares the (empty) cache's capacity, every request piggybacks the
// opens that preceded it, and the server itself chose each group the
// client installs. Replaying the three — Demand for each piggybacked
// access, Install for each group as sent, a tag update for the
// connection's own Write of a resident path — keeps residency and tags
// here equal to the client's for as long as the client has one request in
// flight at a time.
//
// Nothing depends on that equality holding. A tag is a function of
// contents, so a header-only chunk the client cannot match against a
// resident member with that very tag is dropped by the client (one lost
// prefetch, never wrong bytes) and reported on its next request; and the
// shadow is discarded, for the rest of the connection's life, the moment
// the server or the client can tell the two have parted. A nil *shadow is
// a connection that never asked for validation; every method accepts it.
//
// The mutex orders the read loop and the workers (note, wrote) against the
// reply writer (install); a connection with one request in flight never
// contends on it.
type shadow struct {
	mu sync.Mutex
	// capacity is what the hello declared; zero once the shadow is dropped.
	capacity int
	// lru is built by the first validated reply, so a connection that
	// never fetches through a cache (a gossip exchange) never pays for it.
	lru *cache.GroupLRU
	// tags holds, by the server's FileID, the tag of the contents last sent
	// to the client; meaningful only while the id is resident in lru.
	tags []uint64
	gids []trace.FileID // install's scratch: the group in wire order
}

// newShadow returns the shadow for the capacity the handshake agreed to,
// or nil when it agreed to none.
func newShadow(capacity uint64) *shadow {
	if capacity == 0 {
		return nil
	}
	return &shadow{capacity: int(capacity)}
}

// drop discards the shadow for good, counting a reset if it ever vouched
// for anything. Called with mu held.
func (sh *shadow) drop(resets *obs.Counter) {
	if sh.lru != nil {
		resets.Inc()
	}
	sh.capacity, sh.lru, sh.tags, sh.gids = 0, nil, nil, nil
}

// note replays what the client did between its previous request and this
// one: a demand reference to every piggybacked access, oldest first. lost
// reports history the server could not place (a path it has no ID for, a
// request it refused before reading the list); unvalidated is the
// request's own flag. A client with one request in flight piggybacks hits
// only, so an access the shadow does not hold means the two have parted.
func (sh *shadow) note(m *serverMetrics, accessed []trace.FileID, lost, unvalidated bool) {
	if sh == nil {
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	switch {
	case sh.capacity == 0:
	case unvalidated:
		sh.drop(m.resetsClient)
	case lost || (sh.lru == nil && len(accessed) > 0):
		sh.drop(m.resetsHistory)
	default:
		for _, id := range accessed {
			if hit, _ := sh.lru.Demand(id); !hit {
				sh.drop(m.resetsHistory)
				return
			}
		}
	}
}

// wrote records this connection's own Write of id: the client refreshes a
// resident copy from the bytes it sent and the tag the ack carries.
func (sh *shadow) wrote(id trace.FileID, tag uint64) {
	if sh == nil {
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.lru != nil && sh.lru.Contains(id) {
		sh.tags[id] = tag
	}
}

// install replays the client's installation of one group reply, about to
// be written as files[lead] followed by the rest in order, and returns the
// members to send header-only: bit i set means files[i] is one the client
// holds at that very tag. The demanded file is never held.
func (sh *shadow) install(ids *trace.SyncInterner, files []fileData, lead int) (held uint64) {
	if sh == nil {
		return 0
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.capacity == 0 {
		return 0
	}
	if sh.lru == nil {
		lru, err := cache.NewGroupLRU(sh.capacity)
		if err != nil { // cannot be: the capacity is positive
			sh.capacity = 0
			return 0
		}
		sh.lru = lru
	}
	gids := sh.gids[:0]
	for k := range files {
		id := ids.Intern(files[wireOrder(k, lead)].Path)
		if int(id) >= len(sh.tags) {
			sh.tags = trace.GrowDense(sh.tags, id)
		}
		gids = append(gids, id)
	}
	sh.gids = gids
	// Residency and tags as the client has them before this reply lands.
	for k, id := range gids[1:] {
		i := wireOrder(k+1, lead)
		if tag := files[i].Tag; tag != 0 && sh.tags[id] == tag && sh.lru.Contains(id) {
			held |= 1 << i
		}
	}
	sh.lru.Install(gids, false)
	// Every member resident afterwards that carried its bytes was
	// refreshed by them.
	for k, id := range gids {
		if i := wireOrder(k, lead); held&(1<<i) == 0 && sh.lru.Contains(id) {
			sh.tags[id] = files[i].Tag
		}
	}
	return held
}

// wireOrder maps the k-th chunk of a reply to its index in the group's
// files: the demanded file, files[lead], is sent first and the rest follow
// in order.
func wireOrder(k, lead int) int {
	switch {
	case k == 0:
		return lead
	case k <= lead:
		return k - 1
	}
	return k
}
