package fsnet

import (
	"bufio"
	"bytes"
	"errors"
	"log"
	"net"
	"testing"
	"time"

	"aggcache/internal/faultnet"
	"aggcache/internal/obs"
	"aggcache/internal/trace"
)

// TestFetchGroupIsTheFramesRead: the reply a fetch installs is not a
// copy. decodeChunks leaves every member's Data and path inside the chunk
// frame it arrived in, in the connection's reply buffer — header-only
// members included, with no Data — and an append through Data cannot
// write into the next frame.
func TestFetchGroupIsTheFramesRead(t *testing.T) {
	members := []struct {
		path string
		data string
		held bool
	}{{"/data/f000", "contents of /data/f000", false}, {"/data/f001", "", true}, {"/data/f002", "contents of /data/f002", false}}
	var buf []byte
	var ends []int
	for _, m := range members {
		hdr := appendMemberChunkHdr(nil, 1, m.path, contentTag([]byte(m.path)), len(m.data), m.held)
		buf = append(append(buf, hdr[4+v2HdrLen:]...), m.data...)
		ends = append(ends, len(buf))
	}
	var g groupReply
	if err := decodeChunks(&g, buf, ends, "/data/f000"); err != nil {
		t.Fatal(err)
	}
	if g.held != 1<<1 {
		t.Errorf("held = %#b, want member 1 alone", g.held)
	}
	start := 0
	for i, f := range g.files {
		m := members[i]
		if string(g.paths[i]) != m.path || string(f.Data) != m.data || f.Tag != contentTag([]byte(m.path)) {
			t.Errorf("member %d: %q holds %q, tag %#x", i, g.paths[i], f.Data, f.Tag)
		}
		chunk := buf[start:ends[i]]
		start = ends[i]
		if inFrame, _, _, _, _ := memberChunkView(chunk); &inFrame[0] != &g.paths[i][0] {
			t.Errorf("member %d: path is not a view into its chunk's frame", i)
		}
		if m.held {
			continue
		}
		// A chunk's payload ends with the contents.
		if &f.Data[0] != &chunk[len(chunk)-len(f.Data)] {
			t.Errorf("member %d: Data is not a view into its chunk's frame", i)
		}
		if cap(f.Data) != len(f.Data) {
			t.Errorf("member %d: cap %d > len %d, an append would write into the next frame", i, cap(f.Data), len(f.Data))
		}
	}
	g.reset()
	for i, p := range g.paths[:cap(g.paths)] {
		if p != nil || g.files[:cap(g.files)][i].Data != nil {
			t.Errorf("member %d: reset left a view into its frame behind", i)
		}
	}
}

// TestClientCloseMidGroup: a Close that lands while a group is half
// delivered — one chunk kept on the call, no group end yet — fails the
// fetch.
func TestClientCloseMidGroup(t *testing.T) {
	addr := fakeV3Server(t, serveOpens(func(w *bufio.Writer, id uint64, req openRequest) bool {
		// One chunk, then silence.
		return writeChunk(w, id, req.Path, []byte("half a group")) == nil
	}))
	reg := obs.NewRegistry()
	ttfb := reg.Histogram("fsnet_client_ttfb_ns", "")
	client, err := Dial(addr, ClientConfig{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := client.Open("/s/half")
		done <- err
	}()
	for ttfb.Count() == 0 { // the chunk has reached the call
		time.Sleep(time.Millisecond)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrConnBroken) {
		t.Fatalf("fetch cut by Close: err = %v, want ErrConnBroken", err)
	}
}

// TestReplyDroppedUnwrittenReleasesGroup: a group reply that never
// reaches the wire leaves nothing staged behind — whether its batch's
// write failed or it was queued on a writer already dead — so the reused
// staging and scatter-gather storage pins no store contents.
func TestReplyDroppedUnwrittenReleasesGroup(t *testing.T) {
	srv, err := NewServer(seededStore(t, 2), ServerConfig{WriteTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// The writer's connection parks every write until its deadline: a
	// client that stopped reading.
	var gate faultnet.Gate
	gate.Hold()
	defer gate.Resume()
	local, remote := net.Pipe()
	defer remote.Close()
	rw := &replyWriter{s: srv, conn: faultnet.Wrap(local, faultnet.Faults{Gate: &gate}, nil)}
	send := func(id uint64, path string) {
		lo := len(rw.staged)
		rw.staged = append(rw.staged, member{GroupFile: GroupFile{Path: path, Data: []byte("contents of " + path)}, id: trace.FileID(id)})
		rw.sendGroup(id, lo)
	}
	staged := func(what string) {
		t.Helper()
		if len(rw.queue) != 0 || len(rw.staged) != 0 {
			t.Errorf("%s: %d replies queued, %d members staged; want none", what, len(rw.queue), len(rw.staged))
		}
		for i, m := range rw.staged[:cap(rw.staged)] {
			if m.Data != nil {
				t.Errorf("%s: staging slot %d still holds %s's contents", what, i, m.Path)
			}
		}
		for i, b := range rw.bufs[:cap(rw.bufs)] {
			if b != nil {
				t.Errorf("%s: scatter-gather slot %d still holds %q", what, i, b)
			}
		}
	}

	send(1, "/data/f000")
	rw.flush() // the batch's write times out
	if st := srv.Stats(); st.Disconnects != 1 {
		t.Fatalf("Disconnects = %d after the held write timed out, want 1", st.Disconnects)
	}
	staged("after the failed batch")
	// A reply queued after the failure is dropped at once, and nothing is
	// written or counted again.
	send(2, "/data/f001")
	staged("after a reply on the dead writer")
	rw.flush()
	if st := srv.Stats(); st.Disconnects != 1 || gate.Waiting() != 0 {
		t.Errorf("Disconnects = %d, %d writes parked after the dead writer's flush; want 1 and 0", st.Disconnects, gate.Waiting())
	}
}

// TestCloseDuringReplyIsNoDisconnect: a reply write that fails because
// the server itself closed the connection (Close) is a clean departure,
// as a read that fails for that reason is: Disconnects stays 0 and
// nothing is logged.
func TestCloseDuringReplyIsNoDisconnect(t *testing.T) {
	var logged bytes.Buffer
	srv, err := NewServer(seededStore(t, 2), ServerConfig{Logger: log.New(&logged, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var gate faultnet.Gate
	go func() { _ = srv.Serve(faultnet.WrapListener(l, faultnet.Faults{Gate: &gate})) }()
	defer srv.Close()

	rc := rawHello(t, rawDial(t, l.Addr().String()))
	gate.Hold()
	rc.send(t, msgOpen, 1, appendOpenRequest(nil, "/data/f000", nil, false))
	for deadline := time.Now().Add(5 * time.Second); gate.Waiting() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the server never wrote the reply")
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	gate.Resume()
	if st := srv.Stats(); st.Disconnects != 0 {
		t.Errorf("Disconnects = %d after Close cut a held reply, want 0", st.Disconnects)
	}
	if logged.Len() != 0 {
		t.Errorf("Close cutting a held reply logged %q", logged.String())
	}
}
