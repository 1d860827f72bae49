package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

// The ring's property tests build it through NewRing, the alias
// benchmark/ names, so they pin both internal/ring's placement and that
// the alias is that ring. The golden owner table is in internal/ring.

func ringKeys(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("/data/d%02d/f%06d", rng.Intn(64), i)
	}
	return keys
}

// TestRingOwnershipDeterministic: ownership is a pure function of the
// member set — build order and interleaved removals do not matter.
func TestRingOwnershipDeterministic(t *testing.T) {
	members := []string{"n0", "n1", "n2", "n3", "n4"}
	forward := NewRing(64)
	forward.Add(members...)

	backward := NewRing(64)
	for i := len(members) - 1; i >= 0; i-- {
		backward.Add(members[i])
	}

	churned := NewRing(64)
	churned.Add("n2", "zombie", "n0")
	churned.Add("n4", "n1")
	churned.Remove("zombie")
	churned.Add("n3")

	for _, key := range ringKeys(5000, 1) {
		want := forward.Owner(key)
		if got := backward.Owner(key); got != want {
			t.Fatalf("Owner(%q) = %q reversed, %q forward", key, got, want)
		}
		if got := churned.Owner(key); got != want {
			t.Fatalf("Owner(%q) = %q churned, %q forward", key, got, want)
		}
	}
}

// TestRingMinimalMovementOnAdd: growing the ring moves keys only onto
// the new member, and no more than K/N plus slack of them.
func TestRingMinimalMovementOnAdd(t *testing.T) {
	const numKeys = 10000
	keys := ringKeys(numKeys, 2)
	r := NewRing(0) // default replicas
	r.Add("n0", "n1", "n2", "n3", "n4")

	before := make(map[string]string, numKeys)
	for _, k := range keys {
		before[k] = r.Owner(k)
	}

	r.Add("n5")
	moved := 0
	for _, k := range keys {
		owner := r.Owner(k)
		if owner != before[k] {
			moved++
			if owner != "n5" {
				t.Fatalf("key %q moved %q -> %q, not to the new member", k, before[k], owner)
			}
		}
	}
	// Expected movement is K/N with N = 6 members after the add; allow
	// an extra 10% of K for vnode placement variance (the acceptance
	// bound: moved <= K/N + 10%).
	bound := numKeys/r.Len() + numKeys/10
	if moved > bound {
		t.Errorf("add moved %d of %d keys, want <= %d", moved, numKeys, bound)
	}
	if moved == 0 {
		t.Error("add moved no keys; new member owns nothing")
	}
}

// TestRingMinimalMovementOnRemove: shrinking the ring moves only the
// dead member's keys, and every survivor keeps its ownership.
func TestRingMinimalMovementOnRemove(t *testing.T) {
	const numKeys = 10000
	keys := ringKeys(numKeys, 3)
	r := NewRing(0)
	r.Add("n0", "n1", "n2", "n3", "n4")

	before := make(map[string]string, numKeys)
	orphans := 0
	for _, k := range keys {
		before[k] = r.Owner(k)
		if before[k] == "n2" {
			orphans++
		}
	}

	r.Remove("n2")
	moved := 0
	for _, k := range keys {
		owner := r.Owner(k)
		if owner == "n2" {
			t.Fatalf("key %q still owned by removed member", k)
		}
		if owner != before[k] {
			moved++
			if before[k] != "n2" {
				t.Fatalf("key %q moved %q -> %q though its owner survived", k, before[k], owner)
			}
		}
	}
	if moved != orphans {
		t.Errorf("remove moved %d keys, want exactly the %d the dead member owned", moved, orphans)
	}
	bound := numKeys/(r.Len()+1) + numKeys/10
	if moved > bound {
		t.Errorf("remove moved %d of %d keys, want <= %d", moved, numKeys, bound)
	}
}

// TestRingBalance: with default replicas no member's share strays past
// 2x the mean (deterministic for the fixed hash, so safe to pin).
func TestRingBalance(t *testing.T) {
	r := NewRing(0)
	members := []string{"n0", "n1", "n2", "n3", "n4"}
	r.Add(members...)
	counts := make(map[string]int)
	keys := ringKeys(20000, 4)
	for _, k := range keys {
		counts[r.Owner(k)]++
	}
	mean := len(keys) / len(members)
	for _, m := range members {
		if counts[m] == 0 {
			t.Errorf("member %s owns nothing", m)
		}
		if counts[m] > 2*mean {
			t.Errorf("member %s owns %d keys, > 2x mean %d", m, counts[m], mean)
		}
	}
}

func TestRingEdgeCases(t *testing.T) {
	r := NewRing(8)
	if got := r.Owner("/anything"); got != "" {
		t.Errorf("empty ring Owner = %q, want \"\"", got)
	}
	r.Add("", "solo", "solo") // empty and duplicate names ignored
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
	if got := r.Owner("/anything"); got != "solo" {
		t.Errorf("single-member Owner = %q, want solo", got)
	}
	r.Remove("ghost") // unknown member is a no-op
	r.Remove("solo")
	if got := r.Owner("/anything"); got != "" {
		t.Errorf("emptied ring Owner = %q, want \"\"", got)
	}
	if got := len(NewRing(0).Members()); got != 0 {
		t.Errorf("fresh ring has %d members", got)
	}
}

// FuzzRingOwner: for arbitrary keys, ownership is deterministic across
// build orders and always lands on a live member.
func FuzzRingOwner(f *testing.F) {
	f.Add("")
	f.Add("/data/f000001")
	f.Add("sch\xf6n/\x00weird")
	members := []string{"peer-a", "peer-b", "peer-c"}
	fwd := NewRing(32)
	fwd.Add(members...)
	rev := NewRing(32)
	rev.Add(members[2], members[1], members[0])
	valid := map[string]bool{}
	for _, m := range members {
		valid[m] = true
	}
	f.Fuzz(func(t *testing.T, key string) {
		got := fwd.Owner(key)
		if !valid[got] {
			t.Fatalf("Owner(%q) = %q, not a member", key, got)
		}
		if again := fwd.Owner(key); again != got {
			t.Fatalf("Owner(%q) unstable: %q then %q", key, got, again)
		}
		if other := rev.Owner(key); other != got {
			t.Fatalf("Owner(%q) build-order dependent: %q vs %q", key, got, other)
		}
	})
}
