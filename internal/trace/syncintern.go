package trace

import (
	"sync"
	"sync/atomic"
)

// SyncInterner is a concurrency-safe interner whose read path is
// lock-free: lookups of already-known paths — the overwhelmingly common
// case on a warm server — load an immutable snapshot through one atomic
// pointer and touch no lock at all. IDs remain dense and first-use
// ordered, exactly as with Interner.
//
// Mutations build the next epoch instead of locking readers out: a
// first-time assignment goes into a small mutex-guarded dirty overlay,
// and once the overlay has grown past a threshold it is promoted — merged
// into a freshly built snapshot that replaces the published one in a
// single atomic store. Readers therefore see either the old epoch or the
// new one, never a map mid-rehash, and the promotion cost is amortized
// O(1) per interned path.
type SyncInterner struct {
	// snap is the published epoch: an immutable path→ID index plus the
	// ID→path table for every path promoted so far. Never mutated after
	// the atomic store.
	snap atomic.Pointer[internSnap]

	// mu guards the dirty overlay holding paths interned since the last
	// promotion, and the arena new paths' bytes are copied into. Reads
	// only take it after missing the snapshot.
	mu         sync.Mutex
	dirty      map[string]FileID
	dirtyPaths []string // overlay ID→path, offset by len(snap.paths)
	arena      pathArena
}

// internSnap is one immutable epoch.
type internSnap struct {
	ids   map[string]FileID
	paths []string
}

// promoteThreshold returns how large the dirty overlay may grow before it
// is folded into the next snapshot. Scaling with the snapshot keeps the
// rebuild cost amortized constant per path while still promoting eagerly
// when the table is small (so the lock-free path warms up fast).
func promoteThreshold(snapLen int) int {
	if t := snapLen / 4; t > 64 {
		return t
	}
	return 64
}

// NewSyncInterner returns an empty concurrency-safe interner.
func NewSyncInterner() *SyncInterner {
	s := &SyncInterner{dirty: make(map[string]FileID)}
	s.snap.Store(&internSnap{ids: make(map[string]FileID)})
	return s
}

// WrapInterner builds a SyncInterner over the contents of an existing
// interner, taking ownership of it. The caller must not use in directly
// afterwards.
func WrapInterner(in *Interner) *SyncInterner {
	s := &SyncInterner{dirty: make(map[string]FileID)}
	s.snap.Store(&internSnap{ids: in.ids, paths: in.paths})
	return s
}

// Intern returns the FileID for path, assigning the next dense ID if the
// path has not been seen before. Known promoted paths never touch a lock.
func (s *SyncInterner) Intern(path string) FileID {
	snap := s.snap.Load()
	if id, ok := snap.ids[path]; ok {
		return id
	}
	return s.internSlow(snap, path, nil)
}

// InternBytes is Intern for a path held in a byte slice; the lock-free
// hit path allocates nothing, and a first-time assignment copies the path
// into the interner's arena, so path may be overwritten as soon as the
// call returns. Wire decoders use this to intern paths straight out of a
// connection's frame buffer.
func (s *SyncInterner) InternBytes(path []byte) FileID {
	snap := s.snap.Load()
	if id, ok := snap.ids[string(path)]; ok {
		return id
	}
	return s.internSlow(snap, "", path)
}

// internSlow assigns an ID under mu for a path that missed the snapshot,
// re-checking both the (possibly advanced) snapshot and the overlay. The
// path arrives either as a string, kept as it is, or as raw bytes, copied
// into the arena once the path is known to be new.
func (s *SyncInterner) internSlow(seen *internSnap, path string, raw []byte) FileID {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.snap.Load()
	if snap != seen {
		// A promotion happened between the read and the lock; the path
		// may have been folded in.
		var id FileID
		var ok bool
		if raw != nil {
			id, ok = snap.ids[string(raw)]
		} else {
			id, ok = snap.ids[path]
		}
		if ok {
			return id
		}
	}
	if raw != nil {
		if id, ok := s.dirty[string(raw)]; ok {
			return id
		}
		path = s.arena.copy(raw)
	} else if id, ok := s.dirty[path]; ok {
		return id
	}
	id := FileID(len(snap.paths) + len(s.dirtyPaths))
	s.dirty[path] = id
	s.dirtyPaths = append(s.dirtyPaths, path)
	if len(s.dirtyPaths) >= promoteThreshold(len(snap.paths)) {
		s.promote(snap)
	}
	return id
}

// promote folds the dirty overlay into a fresh snapshot and publishes it.
// Called with mu held.
func (s *SyncInterner) promote(snap *internSnap) {
	next := &internSnap{
		ids:   make(map[string]FileID, len(snap.ids)+len(s.dirty)),
		paths: make([]string, 0, len(snap.paths)+len(s.dirtyPaths)),
	}
	for p, id := range snap.ids {
		next.ids[p] = id
	}
	next.paths = append(next.paths, snap.paths...)
	for _, p := range s.dirtyPaths {
		next.ids[p] = FileID(len(next.paths))
		next.paths = append(next.paths, p)
	}
	s.snap.Store(next)
	clear(s.dirty)
	s.dirtyPaths = s.dirtyPaths[:0]
}

// Lookup returns the FileID for path and whether it has been interned.
func (s *SyncInterner) Lookup(path string) (FileID, bool) {
	snap := s.snap.Load()
	if id, ok := snap.ids[path]; ok {
		return id, true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Re-load under mu: a concurrent promotion may have drained the
	// overlay into a newer snapshot.
	if snap2 := s.snap.Load(); snap2 != snap {
		if id, ok := snap2.ids[path]; ok {
			return id, true
		}
	}
	id, ok := s.dirty[path]
	return id, ok
}

// LookupBytes is Lookup for a path held in a byte slice; it never
// allocates. A server uses it to recognise a known path before deciding
// whether an unknown one deserves an ID.
func (s *SyncInterner) LookupBytes(path []byte) (FileID, bool) {
	snap := s.snap.Load()
	if id, ok := snap.ids[string(path)]; ok {
		return id, true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if snap2 := s.snap.Load(); snap2 != snap {
		if id, ok := snap2.ids[string(path)]; ok {
			return id, true
		}
	}
	id, ok := s.dirty[string(path)]
	return id, ok
}

// Path returns the path for id, or "" if id has not been assigned.
func (s *SyncInterner) Path(id FileID) string {
	snap := s.snap.Load()
	if int(id) < len(snap.paths) {
		return snap.paths[id]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snap = s.snap.Load()
	if int(id) < len(snap.paths) {
		return snap.paths[id]
	}
	if i := int(id) - len(snap.paths); i < len(s.dirtyPaths) {
		return s.dirtyPaths[i]
	}
	return ""
}

// Len returns the number of interned paths.
func (s *SyncInterner) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.snap.Load().paths) + len(s.dirtyPaths)
}
