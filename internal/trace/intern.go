package trace

import "strings"

// Interner maps file path names to dense FileIDs and back. IDs are assigned
// in first-use order starting at zero so they can index per-file tables
// directly. The zero value is not usable; call NewInterner.
//
// Interner is not safe for concurrent use; trace construction is
// single-threaded by design (a trace is a totally ordered event sequence).
type Interner struct {
	ids   map[string]FileID
	paths []string
	arena pathArena
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]FileID)}
}

// Intern returns the FileID for path, assigning the next dense ID if the
// path has not been seen before.
func (in *Interner) Intern(path string) FileID {
	if id, ok := in.ids[path]; ok {
		return id
	}
	id := FileID(len(in.paths))
	in.ids[path] = id
	in.paths = append(in.paths, path)
	return id
}

// InternBytes is Intern for a path held in a byte slice. Looking up an
// already-known path allocates nothing (the map index with a string
// conversion compiles to an allocation-free lookup); a first-time
// assignment copies the path into the interner's arena, so path may be
// overwritten as soon as the call returns. The wire decoders use this to
// translate paths straight out of a connection's frame buffer.
func (in *Interner) InternBytes(path []byte) FileID {
	if id, ok := in.ids[string(path)]; ok {
		return id
	}
	p := in.arena.copy(path)
	id := FileID(len(in.paths))
	in.ids[p] = id
	in.paths = append(in.paths, p)
	return id
}

// Lookup returns the FileID for path and whether it has been interned.
func (in *Interner) Lookup(path string) (FileID, bool) {
	id, ok := in.ids[path]
	return id, ok
}

// LookupBytes is Lookup for a path held in a byte slice; it never
// allocates.
func (in *Interner) LookupBytes(path []byte) (FileID, bool) {
	id, ok := in.ids[string(path)]
	return id, ok
}

// Path returns the path for id, or "" if id has not been assigned.
func (in *Interner) Path(id FileID) string {
	if int(id) >= len(in.paths) {
		return ""
	}
	return in.paths[id]
}

// Len returns the number of interned paths.
func (in *Interner) Len() int { return len(in.paths) }

// pathChunk is the size of one path arena chunk.
const pathChunk = 64 << 10

// pathArena copies first-seen paths into append-only chunks, so interning
// a new path costs no heap object of its own. A chunk is a strings.Builder
// that is never reset: each path is a substring of its String(), and the
// bytes behind an earlier String() are never written again, so no unsafe
// is needed. A path that does not fit starts the next chunk; a path over a
// quarter of a chunk gets a string of its own.
type pathArena struct {
	b strings.Builder
}

// copy returns an immutable copy of p.
func (a *pathArena) copy(p []byte) string {
	if len(p) > pathChunk/4 {
		return string(p)
	}
	if a.b.Cap()-a.b.Len() < len(p) {
		a.b = strings.Builder{}
		a.b.Grow(pathChunk)
	}
	start := a.b.Len()
	a.b.Write(p)
	return a.b.String()[start:]
}
