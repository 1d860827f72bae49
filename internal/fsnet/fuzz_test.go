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
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := decodeOpenRequest(data)
		path, views, err := parseOpenRequest(data, nil)
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
		if string(path) != want.Path || !reflect.DeepEqual(got, ref) {
			t.Fatalf("parsed (%q, %q), reference (%q, %q)", path, got, want.Path, ref)
		}
	})
}

func FuzzMemberChunkView(f *testing.F) {
	f.Add(appendBytes(appendString(nil, "/x"), []byte("data")))
	f.Add([]byte{})
	f.Add([]byte{0x01, '/', 0x05, 'a'})
	f.Fuzz(func(t *testing.T, data []byte) {
		path, body, err := memberChunkView(data)
		if err != nil {
			return
		}
		p2, b2, err := memberChunkView(appendBytes(appendString(nil, string(path)), body))
		if err != nil || !bytes.Equal(p2, path) || !bytes.Equal(b2, body) {
			t.Fatalf("round trip = (%q, %q, %v), want (%q, %q)", p2, b2, err, path, body)
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
	f.Add(appendUvarint(nil, protocolVersion))
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := decodeHello(data)
		if err != nil {
			return
		}
		if again, err := decodeHello(appendUvarint(nil, uint64(v))); err != nil || again != v {
			t.Fatalf("round trip = (%d, %v), want %d", again, err, v)
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

func FuzzDecodeHandoffRequest(f *testing.F) {
	f.Add(encodeHandoffRequest(handoffRequest{Anchor: "/x", Members: []string{"/a", "/b"}}))
	f.Add([]byte{})
	f.Add([]byte{0x01, '/', 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeHandoffRequest(data)
		if err != nil {
			return
		}
		if again, err := decodeHandoffRequest(encodeHandoffRequest(req)); err != nil || !reflect.DeepEqual(again, req) {
			t.Fatalf("round trip = (%+v, %v), want %+v", again, err, req)
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

func FuzzDecodeErrorResponse(f *testing.F) {
	f.Add(appendErrorResponse(nil, errorResponse{Code: CodeNotFound, Message: "x"}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = decodeErrorResponse(data)
	})
}
