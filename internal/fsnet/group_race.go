//go:build race

package fsnet

import "sync/atomic"

// The use-after-release detector of race builds (every CI run has one):
// the last Release overwrites the group's frame buffers and drops Files,
// so a holder that reads on sees 0xDB where its reply's bytes were, and
// the container is left to the collector instead of its pool, so its
// count stays at zero and a second Release or a late Retain panics
// however much later it comes.
const poolReleased = false

var liveGroupCount atomic.Int64

func noteGroupLive(d int64) { liveGroupCount.Add(d) }

// LiveGroups counts the groups that hold at least one reference, for the
// reference-balance tests.
func LiveGroups() int64 { return liveGroupCount.Load() }

func scribbleReleased(g *Group) {
	for _, b := range g.bufs {
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xDB
		}
	}
	g.Files = nil
}
