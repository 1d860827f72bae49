package fsnet

import (
	"bytes"
	"reflect"
	"testing"

	"aggcache/internal/obs/otrace"
)

// Fuzz targets for every decoder the serving and client paths run: none
// may panic on arbitrary input, and whatever one accepts must survive a
// re-encode. (Seeds below double as regular unit cases under plain
// `go test`.)

// FuzzParseOpenRequest is differential: the zero-copy parser the server
// runs must accept exactly what the reference decoder accepts and see the
// same paths (minus the empty piggybacked ones it drops).
func FuzzParseOpenRequest(f *testing.F) {
	f.Add(encodeOpenRequest(openRequest{Path: "/x", Accessed: []string{"/a", "", "/b"}}))
	f.Add(encodeOpenRequest(openRequest{Path: "/x", Accessed: []string{"/a"}, Report: []reported{{"/a", 0}, {"/b", 7}}}))
	f.Add(append(encodeOpenRequest(openRequest{Path: "/x"}), 0x02)) // a report cut short
	f.Add(append(encodeOpenRequest(openRequest{Path: "/x"}), 0x00)) // an empty report nobody needed to send
	f.Add(encodeOpenRequest(openRequest{Path: "/x", Accessed: []string{"/a", "/b"}, Gap: true}))
	f.Add(encodeOpenRequest(openRequest{Path: "/x", Gap: true, Report: []reported{{"/a", 3}}}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := decodeOpenRequest(data)
		path, views, gap, report, err := parseOpenRequest(data, nil, nil)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("parseOpenRequest err = %v, reference err = %v", err, wantErr)
		}
		if err != nil {
			return
		}
		var got, ref []string
		for _, v := range views {
			got = append(got, string(v))
		}
		for _, p := range want.Accessed {
			if p != "" {
				ref = append(ref, p)
			}
		}
		var gotReport []reported
		for _, e := range report {
			gotReport = append(gotReport, reported{string(e.path), e.tag})
		}
		if string(path) != want.Path || !reflect.DeepEqual(got, ref) || gap != want.Gap || !reflect.DeepEqual(gotReport, want.Report) {
			t.Fatalf("parsed (%q, %q, gap %v, %v), reference (%q, %q, gap %v, %v)", path, got, gap, gotReport, want.Path, ref, want.Gap, want.Report)
		}
	})
}

// FuzzDecodeStageHint: the stage-hint decoder never panics, and whatever
// it accepts re-encodes to a payload that decodes to the same paths.
func FuzzDecodeStageHint(f *testing.F) {
	f.Add(appendPeerHint(nil, []string{"/a", "/b"}))
	f.Add(appendPeerHint(nil, nil))
	f.Add(appendPeerHint(nil, []string{"/a", "", "/c"}))
	f.Add([]byte{0x02, 0x01})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		views, err := parsePeerHint(data, nil)
		if err != nil {
			return
		}
		var paths []string
		for _, v := range views {
			if len(v) == 0 {
				t.Fatal("an empty path survived the decode")
			}
			paths = append(paths, string(v))
		}
		again, err := parsePeerHint(appendPeerHint(nil, paths), nil)
		if err != nil || len(again) != len(paths) {
			t.Fatalf("re-encoded %q decodes to %d paths, %v", paths, len(again), err)
		}
		for i := range again {
			if string(again[i]) != paths[i] {
				t.Fatalf("re-encoded %q decodes to %q", paths, again)
			}
		}
	})
}

// FuzzMemberChunkView covers both chunk forms: whatever the decoder
// accepts re-encodes through the one header builder to a frame that
// decodes to the same member, and a header-only chunk never yields bytes.
func FuzzMemberChunkView(f *testing.F) {
	payload := func(hdr, data []byte) []byte { return append(hdr[4+v2HdrLen:], data...) }
	f.Add(payload(appendMemberChunkHdr(nil, 1, "/x", 7, 4, false), []byte("data")))
	f.Add(payload(appendMemberChunkHdr(nil, 1, "/x", 7, 4, true), nil))
	f.Add(payload(appendMemberChunkHdr(nil, 1, "/x", 7, 4, true), []byte("data"))) // held, yet bytes follow
	f.Add(payload(appendMemberChunkHdr(nil, 1, "/x", 0, 0, false), nil))
	f.Add([]byte{})
	f.Add([]byte{0x01, '/', 0x05, 'a'})
	f.Add([]byte{0x01, '/', 0x02, 0, 0, 0, 0, 0, 0, 0, 0}) // unknown flags
	f.Fuzz(func(t *testing.T, data []byte) {
		path, body, tag, held, err := memberChunkView(data)
		if err != nil {
			return
		}
		if held && body != nil {
			t.Fatalf("header-only chunk decoded with %d bytes of contents", len(body))
		}
		again := payload(appendMemberChunkHdr(nil, 9, string(path), tag, len(body), held), body)
		p2, b2, t2, h2, err := memberChunkView(again)
		if err != nil || !bytes.Equal(p2, path) || !bytes.Equal(b2, body) || t2 != tag || h2 != held {
			t.Fatalf("round trip = (%q, %q, %#x, %v, %v), want (%q, %q, %#x, %v)", p2, b2, t2, h2, err, path, body, tag, held)
		}
	})
}

func FuzzDecodeGroupEnd(f *testing.F) {
	f.Add(appendGroupEnd(nil, 3))
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := decodeGroupEnd(data)
		if err != nil {
			return
		}
		if again, err := decodeGroupEnd(appendGroupEnd(nil, n)); err != nil || again != n {
			t.Fatalf("round trip = (%d, %v), want %d", again, err, n)
		}
	})
}

func FuzzDecodeHello(f *testing.F) {
	f.Add(appendUvarint(appendUvarint(nil, protocolVersion), 3)) // a hello answer naming a ring
	f.Add(appendUvarint(nil, protocolVersion))                   // a client's hello: no second field
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, epoch, err := decodeHello(data)
		if err != nil {
			return
		}
		var wire bytes.Buffer
		if err := writeHello(&wire, msgHelloOK, v, epoch); err != nil {
			t.Fatal(err)
		}
		v2, e2, err := decodeHello(wire.Bytes()[4+1:])
		if err != nil || v2 != v || e2 != epoch {
			t.Fatalf("round trip = (%d, %d, %v), want (%d, %d)", v2, e2, err, v, epoch)
		}
	})
}

// FuzzDecodeViewMsg feeds one input to both view decoders: a viewPush
// payload is a viewMsg payload with a member list appended.
func FuzzDecodeViewMsg(f *testing.F) {
	f.Add(appendViewMsg(nil, 7, "a:1"))
	f.Add(appendViewPush(nil, 7, "a:1", []string{"a:1", "b:2"}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if epoch, sender, err := decodeViewMsg(data); err == nil {
			e2, s2, err := decodeViewMsg(appendViewMsg(nil, epoch, sender))
			if err != nil || e2 != epoch || s2 != sender {
				t.Fatalf("viewMsg round trip = (%d, %q, %v), want (%d, %q)", e2, s2, err, epoch, sender)
			}
		}
		if epoch, sender, members, err := decodeViewPush(data); err == nil {
			e2, s2, m2, err := decodeViewPush(appendViewPush(nil, epoch, sender, members))
			if err != nil || e2 != epoch || s2 != sender || !reflect.DeepEqual(m2, members) {
				t.Fatalf("viewPush round trip = (%d, %q, %q, %v), want (%d, %q, %q)", e2, s2, m2, err, epoch, sender, members)
			}
		}
	})
}

func FuzzDecodeTraceCtx(f *testing.F) {
	f.Add(appendTraceCtx(nil, 9, otrace.Ctx{Hi: 1, Lo: 2, Span: 3, Sampled: true}))
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		id, ctx, err := decodeTraceCtx(data)
		if err != nil {
			return
		}
		id2, ctx2, err := decodeTraceCtx(appendTraceCtx(nil, id, ctx))
		if err != nil || id2 != id || ctx2 != ctx {
			t.Fatalf("round trip = (%d, %+v, %v), want (%d, %+v)", id2, ctx2, err, id, ctx)
		}
	})
}

func FuzzDecodeWriteRequest(f *testing.F) {
	f.Add(encodeWriteRequest(writeRequest{Path: "/x", Data: []byte("abc")}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path, contents, err := parseWriteRequest(data)
		if err != nil {
			return
		}
		p2, c2, err := parseWriteRequest(encodeWriteRequest(writeRequest{Path: string(path), Data: contents}))
		if err != nil || !bytes.Equal(p2, path) || !bytes.Equal(c2, contents) {
			t.Fatalf("round trip = (%q, %q, %v), want (%q, %q)", p2, c2, err, path, contents)
		}
	})
}

func FuzzDecodeWriteOK(f *testing.F) {
	f.Add(appendWriteOK(nil, 0x1122334455667788))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tag, err := decodeWriteOK(data)
		if err != nil {
			return
		}
		if again, err := decodeWriteOK(appendWriteOK(nil, tag)); err != nil || again != tag {
			t.Fatalf("round trip = (%#x, %v), want %#x", again, err, tag)
		}
	})
}

func FuzzDecodeErrorResponse(f *testing.F) {
	f.Add(appendErrorResponse(nil, errorResponse{Code: CodeNotFound, Message: "x"}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = decodeErrorResponse(data)
	})
}
