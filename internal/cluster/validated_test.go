package cluster

import (
	"testing"

	"aggcache/internal/fsnet"
)

// TestValidatedRepliesOnEveryPath: the entry node's reply writer validates
// a group the same way wherever the group came from — staged from its own
// store, read off the wire from the owner, or kept in the mirror — because
// a tag is a function of the contents and every hop carries the owner's.
// A read-only client walks paths of one owner through node 0; on each of
// the three paths members it already holds must cross as headers, and
// every byte must still match the store.
func TestValidatedRepliesOnEveryPath(t *testing.T) {
	const steps = 5
	for _, tc := range []struct {
		name     string
		mirror   int  // forwardRing's capacity: negative disables it
		remote   bool // walk paths another node owns
		measured func(before, after NodeStats) bool
	}{
		{"staged", -1, false, func(b, a NodeStats) bool {
			return a.LocalOpens > b.LocalOpens && a.ForwardedOpens == b.ForwardedOpens && a.MirrorHits == b.MirrorHits
		}},
		{"forwarded", -1, true, func(b, a NodeStats) bool {
			return a.ForwardedOpens > b.ForwardedOpens && a.MirrorHits == b.MirrorHits && a.LocalOpens == b.LocalOpens
		}},
		{"mirrored", 0, true, func(b, a NodeStats) bool {
			return a.MirrorHits > b.MirrorHits && a.ForwardedOpens == b.ForwardedOpens && a.LocalOpens == b.LocalOpens
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ring := forwardRing(t, tc.mirror)
			owner := 0
			if tc.remote {
				owner = ring.busiestPeer()
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
			// Teach the owner its groups directly, then fill the mirror (if
			// any) and this client's cache with one unmeasured walk.
			walk(ring.client(t, owner, fsnet.ClientConfig{CacheCapacity: 1}))
			client := ring.client(t, 0, fsnet.ClientConfig{CacheCapacity: 6})
			walk(client)

			nodeBefore, srvBefore, cBefore := ring.nodes[0].Stats(), ring.servers[0].Stats(), client.Stats()
			walk(client)
			nodeAfter, srvAfter, cAfter := ring.nodes[0].Stats(), ring.servers[0].Stats(), client.Stats()
			if !tc.measured(nodeBefore, nodeAfter) {
				t.Fatalf("the measured walk did not stay on the %s path: node stats %+v -> %+v", tc.name, nodeBefore, nodeAfter)
			}
			sent := srvAfter.ValidatedMembers - srvBefore.ValidatedMembers
			if sent == 0 || srvAfter.ValidatedBytesSaved == srvBefore.ValidatedBytesSaved {
				t.Errorf("no member of a %s reply was validated", tc.name)
			}
			if got := cAfter.ValidatedFiles - cBefore.ValidatedFiles; got != sent || cAfter.ValidationMisses != 0 {
				t.Errorf("the entry node sent %d header-only members, the client honoured %d and missed %d",
					sent, got, cAfter.ValidationMisses)
			}
			if srvAfter.ShadowResets != 0 {
				t.Errorf("ShadowResets = %d on a connection with one request in flight", srvAfter.ShadowResets)
			}
			// The forward hop itself is never validated: a peer client
			// caches nothing.
			if tc.remote {
				if st := ring.servers[owner].Stats(); st.ValidatedMembers != 0 {
					t.Errorf("the owner sent its peer %d header-only members", st.ValidatedMembers)
				}
			}
		})
	}
}
