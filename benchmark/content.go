package main

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
)

// File contents are a pure function of (path, size, write generation), so any
// reply can be checked without keeping a copy of what was stored:
//
//	bytes 0-3   write generation (0 = as populated), little endian
//	bytes 4-7   file size
//	bytes 8-15  FNV-1a hash of the path
//	bytes 16-   a splitmix64 stream keyed by (path hash, generation)
//
// The client cache is not invalidated by another client's write (fsnet is
// last-writer-wins, read-mostly), so a reader may legitimately see an older
// generation; what it may never see is a generation nobody wrote, another
// file's bytes, or a wrong length.
const contentHeader = 16

func pathHash(path string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(path))
	return h.Sum64()
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func contentKey(hash uint64, gen uint32) uint64 {
	return splitmix64(hash ^ uint64(gen)<<32)
}

func contentByte(key uint64, i int) byte {
	off := i - contentHeader
	return byte(splitmix64(key+uint64(off/8)) >> (8 * uint(off%8)))
}

// fillContent writes the contents of the file into dst, whose length is the
// file size (at least contentHeader).
func fillContent(dst []byte, hash uint64, gen uint32) {
	binary.LittleEndian.PutUint32(dst[0:], gen)
	binary.LittleEndian.PutUint32(dst[4:], uint32(len(dst)))
	binary.LittleEndian.PutUint64(dst[8:], hash)
	key := contentKey(hash, gen)
	body := dst[contentHeader:]
	var k uint64
	for len(body) >= 8 {
		binary.LittleEndian.PutUint64(body, splitmix64(key+k))
		body = body[8:]
		k++
	}
	if len(body) > 0 {
		w := splitmix64(key + k)
		for i := range body {
			body[i] = byte(w >> (8 * uint(i)))
		}
	}
}

// checkContent verifies a reply: length, header, and four probed body bytes
// (first, last, two picked by probe); with full set, every byte. maxGen is the
// newest generation any worker has started writing to this path.
func checkContent(data []byte, hash uint64, size int, maxGen uint32, probe uint64, full bool) bool {
	if len(data) != size || size < contentHeader {
		return false
	}
	gen := binary.LittleEndian.Uint32(data[0:])
	if gen > maxGen ||
		binary.LittleEndian.Uint32(data[4:]) != uint32(size) ||
		binary.LittleEndian.Uint64(data[8:]) != hash {
		return false
	}
	body := size - contentHeader
	if body == 0 {
		return true
	}
	key := contentKey(hash, gen)
	if full {
		var want [8]byte
		for i := contentHeader; i < size; i += 8 {
			binary.LittleEndian.PutUint64(want[:], splitmix64(key+uint64((i-contentHeader)/8)))
			n := min(8, size-i)
			if !bytes.Equal(data[i:i+n], want[:n]) {
				return false
			}
		}
		return true
	}
	r := splitmix64(probe)
	for _, i := range [4]int{
		contentHeader,
		size - 1,
		contentHeader + int(r%uint64(body)),
		contentHeader + int((r>>32)%uint64(body)),
	} {
		if data[i] != contentByte(key, i) {
			return false
		}
	}
	return true
}
