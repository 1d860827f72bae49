//go:build race

package fsnet

import (
	"testing"

	"aggcache/internal/obs/otrace"
)

// liveGroups reads the race-build reference balance.
func liveGroups() (n int64, counted bool) { return LiveGroups(), true }

// TestReleasedGroupIsPoisoned shows the use-after-release detector at
// work: what a holder could still reach after the last Release is gone
// (Files) or overwritten (the frames its Data pointed into), and the
// container's count stays at zero for good.
func TestReleasedGroupIsPoisoned(t *testing.T) {
	_, addr := startServer(t, seededStore(t, 2), ServerConfig{})
	client, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	g, err := client.FetchGroup("/data/f000", otrace.Ctx{})
	if err != nil {
		t.Fatal(err)
	}
	stale := g.Files[0].Data
	if string(stale) != "contents of /data/f000" {
		t.Fatalf("fetched %q", stale)
	}
	g.Release()
	if g.Files != nil {
		t.Error("Files survived the last Release")
	}
	for i, b := range stale {
		if b != 0xDB {
			t.Fatalf("byte %d of a released member reads %#x, want the 0xDB scribble", i, b)
		}
	}
	mustPanic(t, "Release after the last Release", g.Release)
	g.refs.Store(0)
	mustPanic(t, "Retain after the last Release", g.Retain)
}
