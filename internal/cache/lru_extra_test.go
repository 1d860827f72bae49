package cache

import (
	"testing"

	"aggcache/internal/trace"
)

func TestLRUEvictVictim(t *testing.T) {
	c, _ := NewLRU(3)
	c.Access(1)
	c.Access(2)
	c.Access(3)
	id, ok := c.evictVictim()
	if !ok || id != 1 {
		t.Fatalf("EvictVictim = %d,%v want 1,true", id, ok)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", s.Evictions)
	}
	c.evictVictim()
	c.evictVictim()
	if _, ok := c.evictVictim(); ok {
		t.Error("EvictVictim on empty cache reported ok")
	}
}

func TestLRUEvictVictimExceptSkipsProtected(t *testing.T) {
	c, _ := NewLRU(4)
	for _, id := range []trace.FileID{1, 2, 3, 4} {
		c.Access(id)
	}
	// LRU order (victim first): 1, 2, 3, 4.
	id, ok := c.evictVictimExceptIDs([]trace.FileID{1, 2})
	if !ok || id != 3 {
		t.Fatalf("evictVictimExceptIDs = %d,%v want 3,true", id, ok)
	}
	if !c.Contains(1) || !c.Contains(2) {
		t.Error("protected entries evicted")
	}
}

func TestLRUEvictVictimExceptAllProtected(t *testing.T) {
	c, _ := NewLRU(2)
	c.Access(1)
	c.Access(2)
	if _, ok := c.evictVictimExceptIDs([]trace.FileID{1, 2}); ok {
		t.Error("eviction succeeded with every resident protected")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2 (nothing evicted)", c.Len())
	}
}

func TestLRUOnEvictCallback(t *testing.T) {
	c, _ := NewLRU(2)
	var evicted []trace.FileID
	c.onEvict = func(id trace.FileID, _ bool) { evicted = append(evicted, id) }
	c.Access(1)
	c.Access(2)
	c.Access(3) // evicts 1
	c.evictVictim()
	if len(evicted) != 2 || evicted[0] != 1 || evicted[1] != 2 {
		t.Errorf("evicted = %v, want [1 2]", evicted)
	}
	// Remove must NOT fire the callback.
	c.Access(4)
	before := len(evicted)
	c.remove(4)
	if len(evicted) != before {
		t.Error("Remove fired the eviction callback")
	}
	// Clearing the callback must stop notifications.
	c.onEvict = nil
	c.Access(5)
	c.Access(6)
	if len(evicted) != before {
		t.Error("cleared callback still fired")
	}
}
