package fsnet

import (
	"bufio"
	"bytes"
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
