package ring

import (
	"fmt"
	"math/rand"
	"testing"
)

func ringKeys(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("/data/d%02d/f%06d", rng.Intn(64), i)
	}
	return keys
}

// TestRingGoldenOwners pins ownership byte for byte: the owners of a
// fixed key set on a three-member ring, and a digest of the owners of
// 10 000 keys on a five-member one. Every node and every client of a
// cluster must compute the same placement, so a change to the hash, the
// virtual-node labels or the tie-break is a wire change, not a refactor.
func TestRingGoldenOwners(t *testing.T) {
	r := New(0)
	r.Add("127.0.0.1:7391", "127.0.0.1:7392", "127.0.0.1:7393")
	golden := []struct{ key, owner string }{
		{"/task0000/f000", "127.0.0.1:7392"},
		{"/task0037/f001", "127.0.0.1:7391"},
		{"/task0074/f002", "127.0.0.1:7392"},
		{"/task0010/f003", "127.0.0.1:7393"},
		{"/task0047/f004", "127.0.0.1:7391"},
		{"/task0084/f005", "127.0.0.1:7391"},
		{"/task0020/f006", "127.0.0.1:7392"},
		{"/task0057/f000", "127.0.0.1:7391"},
		{"/task0094/f001", "127.0.0.1:7391"},
		{"/task0030/f002", "127.0.0.1:7391"},
		{"/task0067/f003", "127.0.0.1:7392"},
		{"/task0003/f004", "127.0.0.1:7392"},
		{"/task0040/f005", "127.0.0.1:7392"},
		{"/task0077/f006", "127.0.0.1:7392"},
		{"/task0013/f000", "127.0.0.1:7393"},
		{"/task0050/f001", "127.0.0.1:7393"},
		{"/task0087/f002", "127.0.0.1:7392"},
		{"/task0023/f003", "127.0.0.1:7391"},
		{"/task0060/f004", "127.0.0.1:7391"},
		{"/task0097/f005", "127.0.0.1:7393"},
		{"/task0033/f006", "127.0.0.1:7392"},
		{"/task0070/f000", "127.0.0.1:7393"},
		{"/task0006/f001", "127.0.0.1:7392"},
		{"/task0043/f002", "127.0.0.1:7391"},
	}
	for _, g := range golden {
		if got := r.Owner(g.key); got != g.owner {
			t.Errorf("Owner(%q) = %q, golden %q", g.key, got, g.owner)
		}
	}
	r5 := New(0)
	r5.Add("n0", "n1", "n2", "n3", "n4")
	h := uint64(fnvOffset)
	for _, k := range ringKeys(10000, 9) {
		for _, b := range []byte(r5.Owner(k) + "\x00") {
			h ^= uint64(b)
			h *= fnvPrime
		}
	}
	if h != 0xdfd720ea426ad66 {
		t.Errorf("owner digest of 10 000 keys = %#x, golden 0xdfd720ea426ad66", h)
	}
}
