package fsnet

import "aggcache/internal/trace"

// residency is the server's table of what one connection's client holds:
// by the server's FileID, the tag of the contents the client caches, zero
// for a file it does not. A group member the table shows held at the
// member's current tag crosses the wire as a header instead of as its
// bytes (DESIGN.md §4).
//
// Two things write the table and nothing else does. A member sent in full
// sets its entry: the client installs what it receives. The client's
// report, piggybacked on each open, changes entries: it names every file
// the client has dropped, and every file it holds at a tag this
// connection's server did not send it — installed from another member of
// the ring, refreshed by a write, or cached before this connection
// existed. With one request in flight per client the table is therefore
// exactly the client's cache when the request is written. On a pipelined
// connection an earlier reply's install can evict a member after a
// request that still reported it held was written; the client keeps such
// a file's contents until every open written before the eviction is
// answered, so a header-only member it no longer caches still installs.
// A header-only member the client lacks otherwise is dropped by the
// client (one lost prefetch, never wrong bytes) and corrected by its next
// report.
//
// Only the connection's read loop touches the table: it applies each
// request's report and writes each reply, so the two are ordered by the
// loop itself.
type residency struct {
	tags []uint64
}

// apply records one request's report. A path the server has never seen is
// interned only if the store holds it, like piggybacked history; a dropped
// file it has never seen is no news.
func (rs *residency) apply(s *Server, report []reportEntry) {
	if len(report) == 0 {
		return
	}
	for _, e := range report {
		id, known := s.ids.LookupBytes(e.path)
		if !known {
			if e.tag == 0 || !s.store.containsBytes(e.path) {
				continue
			}
			id = s.ids.InternBytes(e.path)
		}
		rs.set(id, e.tag)
	}
}

// send decides one group reply, about to be written as files in order —
// the demanded file first — and returns the members to send header-only:
// bit i set means files[i] is one the client holds at that very tag. The
// demanded file is never held. Every other member is recorded as sent.
func (rs *residency) send(files []member) (held uint64) {
	for i := range files {
		id, tag := files[i].id, files[i].Tag
		if i > 0 && tag != 0 && int(id) < len(rs.tags) && rs.tags[id] == tag {
			held |= 1 << i
			continue
		}
		rs.set(id, tag)
	}
	return held
}

// set records tag for id.
func (rs *residency) set(id trace.FileID, tag uint64) {
	if int(id) >= len(rs.tags) {
		if tag == 0 {
			return
		}
		rs.tags = trace.GrowDense(rs.tags, id)
	}
	rs.tags[id] = tag
}
