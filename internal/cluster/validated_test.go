package cluster

import (
	"testing"

	"aggcache/internal/fsnet"
)

// TestValidatedRepliesOnEveryPath: a member a client already holds
// crosses as a header whichever node sends it — the seed the client
// dialed (staged) or another owner it reached over a connection of its
// own (owner-direct) — because each connection's server keeps what the
// client reported and a tag is a function of the contents. A read-only
// client seeded at node 0 walks paths of one owner; members it holds
// must cross as headers, only the owner may answer, and every byte must
// still match the store.
func TestValidatedRepliesOnEveryPath(t *testing.T) {
	const steps = 5
	for _, tc := range []struct {
		name   string
		remote bool // walk paths another node owns
	}{
		{"staged", false},
		{"owner-direct", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ring := plainRing(t)
			owner := 0
			if tc.remote {
				owner = 1
			}
			paths := ring.pathsOwnedBy(t, owner, 2+2*steps)
			// lead, hot, hot, tail — step after step: every group the owner
			// learns names the two hot files, which a cache of six never
			// lets go of.
			walk := func(c *fsnet.Client) {
				t.Helper()
				for round := 0; round < 4; round++ {
					for k := 0; k < steps; k++ {
						for _, p := range []string{paths[2+2*k], paths[0], paths[1], paths[3+2*k]} {
							data, err := c.Open(p)
							if err != nil {
								t.Fatal(err)
							}
							if string(data) != testContent(p) {
								t.Fatalf("open %s = %q", p, data)
							}
						}
					}
				}
			}
			// Teach the owner its groups directly, then fill this client's
			// cache with one unmeasured walk.
			walk(ring.client(t, owner, fsnet.ClientConfig{CacheCapacity: 1}))
			client := ring.client(t, 0, fsnet.ClientConfig{CacheCapacity: 6})
			walk(client)

			reqBefore, srvBefore, cBefore := ring.requests(), ring.servers[owner].Stats(), client.Stats()
			walk(client)
			reqAfter, srvAfter, cAfter := ring.requests(), ring.servers[owner].Stats(), client.Stats()
			for i := range reqAfter {
				if moved := reqAfter[i] != reqBefore[i]; moved != (i == owner) {
					t.Fatalf("requests per node %v -> %v: the measured walk did not reach exactly its owner, node %d", reqBefore, reqAfter, owner)
				}
			}
			sent := srvAfter.ValidatedMembers - srvBefore.ValidatedMembers
			if sent == 0 || srvAfter.ValidatedBytesSaved == srvBefore.ValidatedBytesSaved {
				t.Errorf("no member of a %s reply was validated", tc.name)
			}
			if got := cAfter.ValidatedFiles - cBefore.ValidatedFiles; got != sent || cAfter.ValidationMisses != 0 {
				t.Errorf("the owner sent %d header-only members, the client honoured %d and missed %d",
					sent, got, cAfter.ValidationMisses)
			}
		})
	}
}
