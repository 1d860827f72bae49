package fsnet

import (
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
)

// Store is the server file store of Figure 2: a concurrency-safe
// in-memory path -> contents map standing in for the storage server's
// disk. Every file is kept with the tag of its contents, computed once
// when it is written.
type Store struct {
	mu    sync.RWMutex
	files map[string]storedFile
}

type storedFile struct {
	data []byte
	tag  uint64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{files: make(map[string]storedFile)}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// contentTag is the validator of a file's contents: the IEEE and
// Castagnoli CRC-32s side by side, both hardware accelerated in the
// standard library (BenchmarkContentTag has the race against hash/crc64).
// A function of the bytes alone, so replicas populated alike agree on it
// with no coordination and a tag learned from one node stays comparable at
// another; it guards against re-sending bytes, not against an adversary.
// Never zero, which GroupFile.Tag reserves for "no validator".
func contentTag(data []byte) uint64 {
	tag := uint64(crc32.ChecksumIEEE(data))<<32 | uint64(crc32.Checksum(data, castagnoli))
	if tag == 0 {
		tag = 1
	}
	return tag
}

// Put stores contents under path, copying the data so later caller
// mutations cannot corrupt the store.
func (s *Store) Put(path string, data []byte) error {
	_, err := s.put(path, data)
	return err
}

// put is Put handing back the tag it gave the contents.
func (s *Store) put(path string, data []byte) (uint64, error) {
	if path == "" || len(path) > maxPath {
		return 0, fmt.Errorf("fsnet: invalid path %q", path)
	}
	if len(data) > maxFileSize {
		return 0, fmt.Errorf("fsnet: file %q of %d bytes exceeds limit %d", path, len(data), maxFileSize)
	}
	f := storedFile{data: make([]byte, len(data)), tag: contentTag(data)}
	copy(f.data, data)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.files[path] = f
	return f.tag, nil
}

// Get returns a copy of the contents of path.
func (s *Store) Get(path string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, ok := s.files[path]
	if !ok {
		return nil, false
	}
	cp := make([]byte, len(f.data))
	copy(cp, f.data)
	return cp, true
}

// GetRef returns the stored contents of path without copying. The
// returned slice is read-only and remains valid forever: Put replaces a
// path's slice wholesale (it never mutates in place) and Delete only
// drops the store's reference, so concurrent writers cannot corrupt a
// reader's view. The zero-copy serving path hands these refs straight to
// the socket writer.
func (s *Store) GetRef(path string) ([]byte, bool) {
	data, _, ok := s.getRef(path)
	return data, ok
}

// getRef is GetRef handing out the contents' tag with them, read under
// one lock so the pair always belongs together.
func (s *Store) getRef(path string) ([]byte, uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, ok := s.files[path]
	return f.data, f.tag, ok
}

// Contains reports whether path exists without copying its contents.
func (s *Store) Contains(path string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.files[path]
	return ok
}

// containsBytes is Contains for a path still sitting in a frame buffer;
// the string-conversion map index never allocates.
func (s *Store) containsBytes(path []byte) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.files[string(path)]
	return ok
}

// Delete removes path, reporting whether it existed.
func (s *Store) Delete(path string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.files[path]; !ok {
		return false
	}
	delete(s.files, path)
	return true
}

// Len returns the number of stored files.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.files)
}

// Paths returns the stored paths in sorted order.
func (s *Store) Paths() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.files))
	for p := range s.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
