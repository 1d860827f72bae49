package cluster

import (
	"fmt"
	"net"
	"testing"
	"time"

	"aggcache/internal/faultnet"
	"aggcache/internal/fsnet"
)

// TestMirrorDropWhileReplyParked: the mirror letting go of a group must
// not take the group from under a reply being written from it. A client's
// open of a mirrored path is answered on node 0 — the reply holds its own
// reference — and parked in the reply writer behind a held gate; then the
// mirror drops the group (evicted by a newer one, expired, or purged with
// its owner), and more forwards churn the frame pool the group's buffers
// would have gone back to. When the gate opens the client must read the
// bytes the owner sent. In race builds a premature release fails at once:
// the last Release scribbles the frames.
func TestMirrorDropWhileReplyParked(t *testing.T) {
	drops := map[string]func(t *testing.T, tc *testCluster, path string){
		"evicted": func(t *testing.T, tc *testCluster, path string) {
			// Capacity 1: mirroring any other group pushes path's out.
			other := tc.pathOwnedBy(t, 1, map[string]bool{path: true})
			if _, handled, err := tc.nodes[0].RouteOpen(other, nil); !handled || err != nil {
				t.Fatalf("evicting forward: handled=%v err=%v", handled, err)
			}
		},
		"expired": func(t *testing.T, tc *testCluster, path string) {
			tc.clk.Advance(2 * time.Minute)
			// The lookup finds the entry stale, drops it and refetches.
			if _, handled, err := tc.nodes[0].RouteOpen(path, nil); !handled || err != nil {
				t.Fatalf("refetch past the TTL: handled=%v err=%v", handled, err)
			}
		},
		"owner purged": func(t *testing.T, tc *testCluster, path string) {
			if err := tc.nodes[0].Update(2, []string{tc.addrs[0], tc.addrs[2]}); err != nil {
				t.Fatal(err)
			}
			if got := tc.nodes[0].Stats().MirrorGroups; got != 0 {
				t.Fatalf("MirrorGroups = %d after the owner left the view, want 0", got)
			}
		},
	}
	for name, drop := range drops {
		t.Run(name, func(t *testing.T) {
			var gate faultnet.Gate // on the connections node 0 accepts
			tc := startClusterBehind(t, 3, func(i int, cfg *Config) {
				cfg.MirrorCapacity = 1
				cfg.MirrorTTL = time.Minute
			}, func(i int, l net.Listener) net.Listener {
				if i != 0 {
					return l
				}
				return faultnet.WrapListener(l, faultnet.Faults{Gate: &gate})
			})
			path := tc.pathOwnedBy(t, 1, nil)
			own := tc.pathOwnedBy(t, 0, nil)

			// Mirror path's group at node 0, and warm the connection the
			// parked reply will use (the handshake reply is a write too).
			if _, handled, err := tc.nodes[0].RouteOpen(path, nil); !handled || err != nil {
				t.Fatalf("warm forward: handled=%v err=%v", handled, err)
			}
			client := tc.client(t, 0, fsnet.ClientConfig{})
			if _, err := client.Open(own); err != nil {
				t.Fatal(err)
			}

			gate.Hold()
			type result struct {
				data []byte
				err  error
			}
			parked := make(chan result, 1)
			go func() {
				data, err := client.Open(path)
				parked <- result{data, err}
			}()
			for gate.Waiting() == 0 {
				time.Sleep(time.Millisecond)
			}
			before := tc.nodes[0].Stats()
			if before.MirrorHits != 1 {
				t.Fatalf("MirrorHits = %d, want 1: the parked reply is not served from the mirror", before.MirrorHits)
			}

			drop(t, tc, path)

			// Whatever buffers went back to the frame pool get reused now:
			// forward a few more groups from whoever owns them in node 0's
			// current view.
			churned := 0
			for f := 0; f < testFiles && churned < 6; f++ {
				other := fmt.Sprintf("/data/f%03d", f)
				if other == path || tc.nodes[0].Owner(other) == tc.addrs[0] {
					continue
				}
				if _, handled, err := tc.nodes[0].RouteOpen(other, nil); !handled || err != nil {
					t.Fatalf("churn forward of %s: handled=%v err=%v", other, handled, err)
				}
				churned++
			}
			select {
			case r := <-parked:
				t.Fatalf("parked open returned (%d bytes, %v) with the gate still held", len(r.data), r.err)
			default:
			}

			gate.Resume()
			r := <-parked
			if r.err != nil {
				t.Fatalf("parked open: %v", r.err)
			}
			if string(r.data) != testContent(path) {
				t.Errorf("parked open read %q, want %q: the group was recycled under its reply", r.data, testContent(path))
			}
		})
	}
}
