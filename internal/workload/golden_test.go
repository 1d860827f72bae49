package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"aggcache/internal/trace"
)

// traceDigest is an FNV-1a digest over every field of every event, in
// order, then over the path table in id order.
func traceDigest(tr *trace.Trace) uint64 {
	h := fnv.New64a()
	var b [8 + 2 + 4 + 4 + 1 + 4]byte
	for _, ev := range tr.Events {
		binary.LittleEndian.PutUint64(b[0:], uint64(ev.Time))
		binary.LittleEndian.PutUint16(b[8:], ev.Client)
		binary.LittleEndian.PutUint32(b[10:], ev.PID)
		binary.LittleEndian.PutUint32(b[14:], ev.UID)
		b[18] = byte(ev.Op)
		binary.LittleEndian.PutUint32(b[19:], uint32(ev.File))
		h.Write(b[:])
	}
	binary.LittleEndian.PutUint64(b[:8], uint64(tr.Paths.Len()))
	h.Write(b[:8])
	for i := 0; i < tr.Paths.Len(); i++ {
		h.Write([]byte(tr.Paths.Path(trace.FileID(i))))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// TestStandardGolden pins the generators bit for bit: every event field
// and the path table of each preset at seed 1, and of one web trace. The
// digests were recorded before trace synthesis was rewritten to intern
// each path once and size the event slice up front; a change to the RNG
// draw order, the path spellings or the first-use id order breaks them.
func TestStandardGolden(t *testing.T) {
	want := map[string]uint64{
		"workstation/100":    0x6d0ecbcc69d197e8,
		"workstation/120000": 0x6300ba85ddabecdc,
		"users/100":          0x8ccc5d1183068852,
		"users/120000":       0xe67faaa6b7488862,
		"write/100":          0x95a47817eae04016,
		"write/120000":       0xd9fb18a6e009ddff,
		"server/100":         0x736d7b49954b10b8,
		"server/120000":      0x000f86f2c306de4e,
	}
	for _, p := range Profiles() {
		for _, opens := range []int{100, 120000} {
			key := fmt.Sprintf("%s/%d", p, opens)
			tr, err := Standard(p, 1, opens)
			if err != nil {
				t.Fatal(err)
			}
			if got := traceDigest(tr); got != want[key] {
				t.Errorf("%s: digest %#x, want %#x (%d events, %d paths)", key, got, want[key], len(tr.Events), tr.Paths.Len())
			}
		}
	}
	web, err := GenerateWeb(WebConfig{Seed: 1, Requests: 30000})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := traceDigest(web), uint64(0xf37ad05bdcb3bfbd); got != want {
		t.Errorf("web: digest %#x, want %#x (%d events, %d paths)", got, want, len(web.Events), web.Paths.Len())
	}
}
