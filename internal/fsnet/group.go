package fsnet

import "fmt"

// groupReply is a group reply decoded in place, by the client that
// installs it: views into the chunk frames its call read into the
// connection's reply buffer, valid until the connection's next read.
type groupReply struct {
	// files is the group in arrival order, the demanded file first: each
	// member's contents and tag.
	files []GroupFile
	// paths are the members' path bytes inside their frames.
	paths [][]byte
	// held has bit i set when chunk i arrived header-only: files[i] then
	// has a tag and no Data, which only a client that already caches the
	// member can make good (installViews).
	held uint64
}

// decodeChunks validates a streamed reply's chunk frames — read one after
// another into buf, chunk i ending at ends[i] — and records their views in
// g: each member's contents and tag in files, its path bytes in paths, the
// header-only ones in held. The demanded file must lead and must have come
// in full.
func decodeChunks(g *groupReply, buf []byte, ends []int, path string) error {
	start := 0
	for i, end := range ends {
		p, d, tag, held, err := memberChunkView(buf[start:end])
		start = end
		if err != nil {
			return err
		}
		if held {
			g.held |= 1 << i // a call's read admits at most maxGroup (64) chunks
		}
		g.paths = append(g.paths, p)
		// Capacity-limited, so an append through one member cannot reach
		// into its buffer's spare bytes.
		g.files = append(g.files, GroupFile{Data: d[:len(d):len(d)], Tag: tag})
	}
	if string(g.paths[0]) != path {
		return fmt.Errorf("reply leads with %q, want %q", g.paths[0], path)
	}
	if g.held&1 != 0 {
		return fmt.Errorf("reply leads with a header-only chunk for %q", path)
	}
	return nil
}

// reset drops g's views, before the connection reads into their frames
// again, and keeps its storage for the next reply.
func (g *groupReply) reset() {
	clear(g.paths)
	clear(g.files)
	g.paths, g.files, g.held = g.paths[:0], g.files[:0], 0
}
