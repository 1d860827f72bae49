package cache

import "aggcache/internal/trace"

// none is the null node or bucket index of the dense caches.
const none int32 = -1

// slots is the residency table of LRU and LFU: indexed by FileID, it holds
// 1 + the index of the file's node in the cache's slab, or 0 when the file
// is not resident. It grows by trace.GrowDense on first insertion of an id
// past its end, so it is at most 1.5 x (largest id inserted + 1) long; a
// lookup past the end is a miss and grows nothing.
type slots []int32

// lookup returns id's node index, or none when id is not resident.
func (s slots) lookup(id trace.FileID) int32 {
	if int(id) < len(s) {
		return s[id] - 1
	}
	return none
}

// set records that id's node is at index i.
func (s *slots) set(id trace.FileID, i int32) {
	if int(id) >= len(*s) {
		*s = trace.GrowDense(*s, id)
	}
	(*s)[id] = i + 1
}

// appendSlab appends v to a slab that never holds more than limit entries,
// doubling its storage but never past limit, so a full cache's slab is
// exactly limit entries and the high-water mark of residents bounds it
// before that.
func appendSlab[T any](s []T, v T, limit int) []T {
	if len(s) == cap(s) {
		grown := make([]T, len(s), min(max(2*len(s), 8), limit))
		copy(grown, s)
		s = grown
	}
	return append(s, v)
}
