package fsnet

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Group is one group reply, carried unchanged through every layer that
// touches it: the mux reader fills it with the chunk frames the owner
// sent, the cluster tier's mirror keeps it, and the entry node's reply
// writer sends it — the bytes read off the wire are the bytes kept and
// the bytes written. A locally staged group is the same type with no
// frames: its Data are references into the store.
//
// A Group is reference counted and recycled. Whoever receives one from
// Client.FetchGroup, an InlineRouter or NewGroup owns one reference and
// must Release it exactly once; Retain adds a reference and is only legal
// while the caller provably holds a live one. After Release a holder
// touches neither Files nor any Data: the last Release hands the frame
// buffers to the frame pool and the container to its own. A reference that
// is never released is merely garbage — the group is then never recycled
// and the collector frees it. DESIGN.md §11 has the holder table.
type Group struct {
	// Files is the group in arrival order: the file the owner was asked
	// for first, then its opportunistically fetched members. Read-only —
	// every holder shares it.
	Files []GroupFile

	// bufs are the pooled chunk frame buffers Files' Data point into, in
	// arrival order; empty for a staged group. paths are the members' path
	// bytes inside them, set by decodeChunks for the client to intern.
	bufs  [][]byte
	paths [][]byte
	// held has bit i set when chunk i arrived header-only: Files[i] then
	// has a tag and no Data, which only a client that already caches the
	// member can make good (installViews).
	held uint64

	refs atomic.Int32
}

var groupPool = sync.Pool{New: func() interface{} { return new(Group) }}

// NewGroup returns an empty group holding one reference, for the caller
// to fill Files (an InlineRouter that builds its own replies, a test).
func NewGroup() *Group {
	g := groupPool.Get().(*Group)
	g.refs.Store(1)
	noteGroupLive(1)
	return g
}

// Retain adds a reference. The caller must hold a live one — its own, or
// a lock under which the group's holder cannot release it.
func (g *Group) Retain() {
	if g.refs.Add(1) <= 1 {
		panic("fsnet: Retain of a released Group")
	}
}

// Release drops one reference; the last one recycles the group.
func (g *Group) Release() {
	n := g.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("fsnet: Release of a released Group")
	}
	noteGroupLive(-1)
	scribbleReleased(g)
	for i, b := range g.bufs {
		putFrameBuf(b)
		g.bufs[i] = nil
	}
	for i := range g.paths {
		g.paths[i] = nil
	}
	for i := range g.Files {
		g.Files[i] = GroupFile{}
	}
	g.bufs, g.paths, g.Files, g.held = g.bufs[:0], g.paths[:0], g.Files[:0], 0
	if poolReleased {
		groupPool.Put(g)
	}
}

// RetainedBytes is the capacity of the frame buffers the group pins: what
// holding it costs beyond the members' own lengths, since a small chunk
// may sit in a buffer an earlier, larger frame sized. Zero for a staged
// group, whose contents are the store's.
func (g *Group) RetainedBytes() int {
	n := 0
	for _, b := range g.bufs {
		n += cap(b)
	}
	return n
}

// decodeChunks validates a streamed reply's chunks and records their
// views in g: each member's contents and tag in Files, its path bytes in
// paths, the header-only ones in held. The demanded file must lead and
// must have come in full. On error the caller still owns g.
func decodeChunks(g *Group, path string) error {
	for i, buf := range g.bufs {
		p, d, tag, held, err := memberChunkView(buf)
		if err != nil {
			return err
		}
		if held {
			g.held |= 1 << i // the mux reader admits at most maxGroup (64) chunks
		}
		g.paths = append(g.paths, p)
		// Capacity-limited, so an append through one member cannot reach
		// into its buffer's spare bytes.
		g.Files = append(g.Files, GroupFile{Data: d[:len(d):len(d)], Tag: tag})
	}
	if string(g.paths[0]) != path {
		return fmt.Errorf("reply leads with %q, want %q", g.paths[0], path)
	}
	if g.held&1 != 0 {
		return fmt.Errorf("reply leads with a header-only chunk for %q", path)
	}
	return nil
}
