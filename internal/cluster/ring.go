package cluster

import "aggcache/internal/ring"

// Ring and NewRing name the consistent-hash ring under its old address,
// for callers that still spell it here; the ring lives in internal/ring,
// where clients use it too.
type Ring = ring.Ring

// NewRing returns ring.New(replicas).
func NewRing(replicas int) *Ring { return ring.New(replicas) }
