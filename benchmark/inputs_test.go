package main

import (
	"fmt"
	"strings"
	"testing"

	"aggcache/internal/trace"
	"aggcache/internal/workload"
)

func TestSeedFixesTheOpStream(t *testing.T) {
	spec := streamSpec{profile: workload.ProfileWrite, sizeLo: 512, sizeHi: 8 << 10}
	build := func(seed int64) *opStream {
		s, err := buildStream(spec, seed, 2, 4500)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b, c := build(7), build(7), build(8)
	if a.hash() != b.hash() {
		t.Error("the same seed gave two different op streams")
	}
	if a.hash() == c.hash() {
		t.Error("different seeds gave the same op stream")
	}
	var writes, total int
	for w, ops := range a.workers {
		if len(ops) == 0 {
			t.Fatalf("worker %d has nothing to do", w)
		}
		total += len(ops)
		for _, o := range ops {
			if o.write() {
				writes++
			}
			if o.file() >= len(a.paths) {
				t.Fatalf("op refers to file %d of %d", o.file(), len(a.paths))
			}
		}
	}
	if total < 4000 || total > 5000 {
		t.Errorf("asked for about 4500 operations, got %d", total)
	}
	if writes < total/4 || writes > total/2 {
		t.Errorf("%d of %d operations are writes, want about a third", writes, total)
	}
	for i, size := range a.sizes {
		if size < 512 || size > 8<<10 {
			t.Fatalf("file %d has size %d outside [512, 8192]", i, size)
		}
	}

	spec.stripWrites = true
	readOnly, err := buildStream(spec, 7, 2, 4500)
	if err != nil {
		t.Fatal(err)
	}
	for _, ops := range readOnly.workers {
		for _, o := range ops {
			if o.write() {
				t.Fatal("stripWrites left a write in the stream")
			}
		}
	}
}

// TestSingleClientProfileGivesEveryWorkerItsOwnTrace covers the server
// profile, which has one client: two workers get two traces, each under its
// own directory, and no worker opens a file of the other's.
func TestSingleClientProfileGivesEveryWorkerItsOwnTrace(t *testing.T) {
	spec := streamSpec{profile: workload.ProfileServer, stripWrites: true, sizeLo: 1 << 10, sizeHi: 16 << 10}
	s, err := buildStream(spec, 3, 2, 6000)
	if err != nil {
		t.Fatal(err)
	}
	for w, ops := range s.workers {
		if len(ops) != 3000 {
			t.Errorf("worker %d has %d operations, want 3000", w, len(ops))
		}
		dir := fmt.Sprintf("/w%d/", w)
		for _, o := range ops {
			if p := s.paths[o.file()]; !strings.HasPrefix(p, dir) {
				t.Fatalf("worker %d opens %s, outside %s", w, p, dir)
			}
		}
	}
	var head [2]string
	for w := range head {
		for _, o := range s.workers[w][:200] {
			head[w] += strings.TrimPrefix(s.paths[o.file()], fmt.Sprintf("/w%d", w)) + " "
		}
	}
	if head[0] == head[1] {
		t.Error("both workers replay the same trace")
	}
}

func TestContentRoundTripAndRejections(t *testing.T) {
	const size = 1003 // not a multiple of 8, so the tail path runs
	hash := pathHash("/task0001/f001")
	data := make([]byte, size)
	fillContent(data, hash, 3)
	for probe := uint64(0); probe < 200; probe++ {
		if !checkContent(data, hash, size, 3, probe, probe%2 == 0) {
			t.Fatalf("genuine contents rejected (probe %d)", probe)
		}
	}
	if !checkContent(data, hash, size, 9, 1, true) {
		t.Error("an older generation than the newest written must be accepted")
	}
	if checkContent(data, hash, size, 2, 1, true) {
		t.Error("a generation nobody wrote was accepted")
	}
	if checkContent(data, pathHash("/task0001/f002"), size, 3, 1, false) {
		t.Error("another file's bytes were accepted")
	}
	if checkContent(data[:size-1], hash, size, 3, 1, false) {
		t.Error("a short reply was accepted")
	}
	for _, i := range []int{contentHeader, size / 2, size - 1} {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x40
		if checkContent(bad, hash, size, 3, 1, true) {
			t.Errorf("a flipped byte at %d passed the byte-for-byte check", i)
		}
	}
	bad := append([]byte(nil), data...)
	bad[size-1] ^= 1
	if checkContent(bad, hash, size, 3, 1, false) {
		t.Error("a flipped last byte passed the probe check")
	}
	other := make([]byte, size)
	fillContent(other, hash, 4)
	if string(other[contentHeader:]) == string(data[contentHeader:]) {
		t.Error("two generations have the same body")
	}
}

func TestReferenceLRU(t *testing.T) {
	tr, err := workload.Standard(workload.ProfileServer, 5, 5000)
	if err != nil {
		t.Fatal(err)
	}
	ids := tr.OpenIDs()
	distinct := make(map[trace.FileID]bool)
	for _, id := range ids {
		distinct[id] = true
	}
	if got := referenceLRUMisses(ids, len(ids)); got != uint64(len(distinct)) {
		t.Errorf("a cache that never evicts missed %d times, want one per distinct file (%d)", got, len(distinct))
	}
	if got := referenceLRUMisses([]trace.FileID{1, 2, 1, 3, 2, 1}, 2); got != 5 {
		t.Errorf("LRU(2) over 1 2 1 3 2 1 missed %d times, want 5", got)
	}
}
