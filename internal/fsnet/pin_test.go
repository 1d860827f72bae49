package fsnet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net"
	"strings"
	"testing"

	"aggcache/internal/core"
)

// The sequential-behaviour pin: a scripted, strictly sequential client
// session must produce byte-identical group replies and an identical
// ServerStats snapshot across refactors of the serving path. The
// constants below were captured from the pre-concurrency server, over the
// lock-step protocol of the day; the script now runs over a raw streamed
// connection and each reply is re-encoded in that original form before it
// is hashed. Any change to them is a semantic regression, not a perf
// improvement.

// pinStep is one scripted request: an open with an explicit piggybacked
// history, or a whole-file write.
type pinStep struct {
	write    bool
	path     string
	accessed []string
	data     string
}

func pinStore(t testing.TB) *Store {
	t.Helper()
	store := NewStore()
	for i := 0; i < 16; i++ {
		path := fmt.Sprintf("/pin/f%02d", i)
		content := fmt.Sprintf("pin-data-%02d:%s", i, strings.Repeat("ab", i))
		if err := store.Put(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

func pinScript() []pinStep {
	f := func(i int) string { return fmt.Sprintf("/pin/f%02d", i) }
	return []pinStep{
		{path: f(0)},
		{path: f(1), accessed: []string{f(0)}},
		{path: f(2), accessed: []string{f(1)}},
		{path: f(0)},
		{path: f(1), accessed: []string{f(0)}},
		{path: f(2), accessed: []string{f(1)}},
		{path: f(10)},
		{path: f(11), accessed: []string{f(10)}},
		{path: f(0), accessed: []string{f(11)}},
		{path: f(1)},
		{path: f(2), accessed: []string{f(1)}},
		{path: "/pin/missing"},
		{write: true, path: f(3), data: "updated-f03"},
		{path: f(3)},
		{path: f(12), accessed: []string{f(3)}},
		{path: f(13), accessed: []string{f(12)}},
		{path: f(0), accessed: []string{f(13)}},
		{path: f(1)},
	}
}

// runPinScript replays the script over one raw connection and returns the
// SHA-256 over every reply in its historical form (type byte || payload,
// a streamed group reassembled into one msgGroupV1 payload followed by its
// members' tags), oldest first. Each open reports every file the
// connection received before as dropped, so every member arrives in full.
func runPinScript(t *testing.T, addr string) string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rc := rawHello(t, conn)
	h := sha256.New()
	var received []reported
	for i, step := range pinScript() {
		id := uint64(i + 1)
		if step.write {
			rc.send(t, msgWrite, id, encodeWriteRequest(writeRequest{Path: step.path, Data: []byte(step.data)}))
		} else {
			rc.send(t, msgOpen, id, encodeOpenRequest(openRequest{Path: step.path, Accessed: step.accessed, Report: received}))
			received = nil
		}
		var files []GroupFile
		var tags []byte
		for done := false; !done; {
			typ, gotID, payload, err := readFrameID(rc.r, nil)
			if err != nil || gotID != id {
				t.Fatalf("step %d reply: id %d, %v", i, gotID, err)
			}
			switch typ {
			case msgMemberChunk:
				path, data, tag, held, err := memberChunkView(payload)
				if err != nil || held {
					t.Fatalf("step %d chunk: held=%v, %v", i, held, err)
				}
				files = append(files, GroupFile{Path: string(path), Data: data})
				tags = binary.BigEndian.AppendUint64(tags, tag)
				received = append(received, reported{Path: string(path)})
				continue
			case msgGroupEnd:
				if n, err := decodeGroupEnd(payload); err != nil || n != len(files) {
					t.Fatalf("step %d group end: %d members of %d, %v", i, n, len(files), err)
				}
				// The historical form has no tags: they follow it.
				typ, payload = msgGroupV1, append(appendGroupResponse(nil, files), tags...)
			}
			h.Write([]byte{typ})
			h.Write(payload)
			done = true
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Captured from the pre-concurrency (serialized) server. Do not update
// these without a deliberate, documented semantic change. One since:
// protocol version 4 gave every member chunk and every write ack a content
// tag, hashed here after the historical form of the reply it came with.
// With the tags left out of the hash the script still produces the
// original capture, b2f73518b0d58cfae86056e6b82f56e0465a3b581df6a75d97c883bf8fd62bf4:
// paths, contents and order are what they always were.
const pinWantHash = "92d43ace283a6b94e20c66920934dca5e6ca8df2758cc598832a3c74fd97743d"

var pinWantStats = ServerStats{
	Requests:       18,
	Errors:         1,
	FilesSent:      32,
	StreamedGroups: 16, // every successful open; the one field not in the original capture
	Cache: core.Stats{
		Hits:         8,
		Misses:       8,
		GroupFetches: 8,
		FilesFetched: 8,
		Evictions:    2,
	},
}

func TestSequentialServerPinnedBehaviour(t *testing.T) {
	store := pinStore(t)
	srv, addr := startServer(t, store, ServerConfig{GroupSize: 3, CacheCapacity: 6, SuccessorCapacity: 2})
	gotHash := runPinScript(t, addr)
	gotStats := srv.Stats()
	if gotHash != pinWantHash {
		t.Errorf("reply hash = %s, want %s", gotHash, pinWantHash)
	}
	if gotStats != pinWantStats {
		t.Errorf("server stats = %+v, want %+v", gotStats, pinWantStats)
	}
}
