package fsnet

import (
	"bufio"
	"bytes"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// appendFrameID appends one complete request-ID frame to dst, encoded as
// a server's reply writer encodes its frames, for tests that craft a burst
// of frames by hand.
func appendFrameID(dst []byte, typ uint8, id uint64, payload []byte) []byte {
	rw := replyWriter{arena: dst}
	start := rw.frame(id, typ)
	rw.end(append(rw.arena, payload...), start)
	return rw.arena
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, msgOpen, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if typ != msgOpen || string(payload) != "hello" {
		t.Errorf("frame = %d %q", typ, payload)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, msgError, nil); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if typ != msgError || len(payload) != 0 {
		t.Errorf("frame = %d %q", typ, payload)
	}
}

func TestReadFrameRejectsBadLengths(t *testing.T) {
	// Zero length.
	if _, _, err := readFrame(bufio.NewReader(bytes.NewReader([]byte{0, 0, 0, 0}))); err == nil {
		t.Error("zero-length frame accepted")
	}
	// Oversized length.
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(huge))); err == nil {
		t.Error("oversized frame accepted")
	}
	// Truncated body.
	if _, _, err := readFrame(bufio.NewReader(bytes.NewReader([]byte{0, 0, 0, 5, 1, 2}))); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestOpenRequestRoundTrip(t *testing.T) {
	req := openRequest{
		Path:     "/bin/sh",
		Accessed: []string{"/a", "/b", "/c"},
	}
	got, err := decodeOpenRequest(encodeOpenRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if got.Path != req.Path || len(got.Accessed) != 3 || got.Accessed[1] != "/b" {
		t.Errorf("decoded = %+v", got)
	}
}

// TestOpenGapFlagRoundTrip: the gap flag rides in the low bit of the
// history count, with or without history and a report, and a version-7
// count — the bare count of a history of n — reads as n/2 entries, so a
// peer of that generation is turned away by the handshake, not parsed.
func TestOpenGapFlagRoundTrip(t *testing.T) {
	for _, req := range []openRequest{
		{Path: "/x", Gap: true},
		{Path: "/x", Accessed: []string{"/a", "/b"}, Gap: true},
		{Path: "/x", Accessed: []string{"/a"}, Gap: true, Report: []reported{{"/a", 9}}},
		{Path: "/x", Accessed: []string{"/a"}},
	} {
		payload := encodeOpenRequest(req)
		got, err := decodeOpenRequest(payload)
		if err != nil || got.Gap != req.Gap || !slices.Equal(got.Accessed, req.Accessed) {
			t.Errorf("%+v round trips to %+v, %v", req, got, err)
		}
		path, views, gap, _, err := parseOpenRequest(payload, nil, nil)
		if err != nil || string(path) != req.Path || gap != req.Gap || len(views) != len(req.Accessed) {
			t.Errorf("%+v parses to %q, %d paths, gap %v, %v", req, path, len(views), gap, err)
		}
	}
}

// TestPeerHintRoundTrip: a stage hint carries its paths in order, drops
// empty ones, and rejects a truncated payload, trailing bytes and a count
// past the bound; its ack is empty and decodes only as the answer to a
// hint.
func TestPeerHintRoundTrip(t *testing.T) {
	paths := []string{"/a", "/b", "/c"}
	views, err := parsePeerHint(appendPeerHint(nil, paths), nil)
	if err != nil || len(views) != 3 || string(views[0]) != "/a" || string(views[2]) != "/c" {
		t.Fatalf("round trip = %q, %v", views, err)
	}
	if views, err := parsePeerHint(appendPeerHint(nil, []string{"/a", "", "/c"}), nil); err != nil || len(views) != 2 {
		t.Errorf("hint with an empty path = %q, %v; want the two others", views, err)
	}
	full := appendPeerHint(nil, paths)
	if _, err := parsePeerHint(full[:len(full)-1], nil); err == nil {
		t.Error("truncated hint accepted")
	}
	if _, err := parsePeerHint(append(full, 0), nil); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, err := parsePeerHint(appendUvarint(nil, maxStatPaths+1), nil); err == nil {
		t.Error("hint past the path bound accepted")
	}
	if _, err := decodeReply(msgPeerHint, msgPeerHintOK, nil); err != nil {
		t.Errorf("empty ack to a hint: %v", err)
	}
	if _, err := decodeReply(msgPeerHint, msgPeerHintOK, []byte{1}); err == nil {
		t.Error("ack with a payload accepted")
	}
	if _, err := decodeReply(msgWrite, msgPeerHintOK, nil); err == nil {
		t.Error("hint ack to a write accepted")
	}
}

func TestOpenRequestRoundTripProperty(t *testing.T) {
	f := func(path string, accessed []string) bool {
		if path == "" || len(path) > maxPath {
			return true // out of contract
		}
		if len(accessed) > maxStatPaths {
			accessed = accessed[:maxStatPaths]
		}
		for _, a := range accessed {
			if len(a) > maxPath {
				return true
			}
		}
		req := openRequest{Path: path, Accessed: accessed}
		got, err := decodeOpenRequest(encodeOpenRequest(req))
		if err != nil {
			return false
		}
		if got.Path != path || len(got.Accessed) != len(accessed) {
			return false
		}
		for i := range accessed {
			if got.Accessed[i] != accessed[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeOpenRequestRejects(t *testing.T) {
	// Empty path.
	if _, err := decodeOpenRequest(encodeOpenRequest(openRequest{Path: ""})); err == nil {
		t.Error("empty path accepted")
	}
	// Truncated payload.
	full := encodeOpenRequest(openRequest{Path: "/x", Accessed: []string{"/y"}})
	if _, err := decodeOpenRequest(full[:len(full)-1]); err == nil {
		t.Error("truncated payload accepted")
	}
	// Trailing garbage.
	if _, err := decodeOpenRequest(append(full, 0xff)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Path over limit.
	long := openRequest{Path: strings.Repeat("p", maxPath+1)}
	if _, err := decodeOpenRequest(encodeOpenRequest(long)); err == nil {
		t.Error("oversized path accepted")
	}
}

func TestErrorResponseRoundTrip(t *testing.T) {
	resp := errorResponse{Code: CodeNotFound, Message: "/missing"}
	got, err := decodeErrorResponse(appendErrorResponse(nil, resp))
	if err != nil {
		t.Fatal(err)
	}
	if got != resp {
		t.Errorf("decoded = %+v, want %+v", got, resp)
	}
	if _, err := decodeErrorResponse([]byte{0xff}); err == nil {
		t.Error("garbage error payload accepted")
	}
}
