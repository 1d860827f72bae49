package fsnet

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestOpenResultIsNeverOverwritten pins Open's contract: the slice it
// returns is the cache's own storage, and that storage is never written
// again — not by a Write of the path, not by its eviction and refetch, not
// by concurrent opens installing groups around it. Run under -race, a
// write into held storage is also a reported race against the reads here.
func TestOpenResultIsNeverOverwritten(t *testing.T) {
	const files = 40
	store := seededStore(t, files)
	_, addr := startServer(t, store, ServerConfig{GroupSize: 4})
	path := func(i int) string { return fmt.Sprintf("/data/f%03d", i%files) }
	content := func(i int) string { return "contents of " + path(i) }

	// Teach the server that f001 follows f000, so a fetch of f000 brings
	// f001 along in the same slab.
	trainer, err := Dial(addr, ClientConfig{CacheCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer trainer.Close()
	for round := 0; round < 4; round++ {
		for i := 0; i < 2; i++ {
			if _, err := trainer.Open(path(i)); err != nil {
				t.Fatal(err)
			}
		}
	}

	client, err := Dial(addr, ClientConfig{CacheCapacity: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	p := path(0)
	d, err := client.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	was := content(0)
	held := func(when string) {
		t.Helper()
		if string(d) != was {
			t.Fatalf("%s: held slice = %q, was %q", when, d, was)
		}
	}
	held("after the fetch")
	if cap(d) != len(d) {
		t.Errorf("cap = %d, len = %d: an append could reach the slab's next member", cap(d), len(d))
	}
	if !client.Contains(path(1)) {
		t.Fatalf("%s did not arrive with %s: the slab has no next member to protect", path(1), p)
	}
	if grown := append(d, 1); &grown[0] == &d[0] {
		t.Error("append to an Open result did not reallocate")
	}
	if next, err := client.Open(path(1)); err != nil || string(next) != content(1) {
		t.Errorf("next member after the append = %q, %v", next, err)
	}
	if st := client.Stats(); st.Fetches != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want one fetch and the member's hit", st)
	}

	// (a) A Write of the path installs new storage.
	other := []byte("rewritten, and longer than the original contents")
	if err := client.Write(p, other); err != nil {
		t.Fatal(err)
	}
	held("after Write")
	if fresh, err := client.Open(p); err != nil || !bytes.Equal(fresh, other) {
		t.Errorf("Open after Write = %q, %v", fresh, err)
	}

	// (b) Eviction and refetch install new storage.
	for i := 2; client.Contains(p); i++ {
		if i > 10*files {
			t.Fatalf("%s survived %d distinct opens through a 6-file cache", p, i)
		}
		if _, err := client.Open(path(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := client.Stats().Fetches
	if fresh, err := client.Open(p); err != nil || !bytes.Equal(fresh, other) {
		t.Errorf("Open after eviction = %q, %v", fresh, err)
	}
	if client.Stats().Fetches != before+1 {
		t.Error("the open after eviction was not a refetch")
	}
	held("after eviction and refetch")

	// (c) Concurrent opens of overlapping paths churn the cache around it
	// while this goroutine keeps reading the held slice.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n, i := 0, w; n < 300; n, i = n+1, i+3 {
				want := content(i)
				if i%files == 0 {
					want = string(other)
				}
				if got, err := client.Open(path(i)); err != nil || string(got) != want {
					t.Errorf("concurrent open %s = %q, %v", path(i), got, err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for churning := true; churning; {
		select {
		case <-done:
			churning = false
		default:
			held("during concurrent opens")
		}
	}
	held("after concurrent opens")
}

// TestOpenEmptyFile: an empty file is a zero-length result and no error,
// whether it is fetched or served from the cache.
func TestOpenEmptyFile(t *testing.T) {
	store := seededStore(t, 1)
	if err := store.Put("/data/empty", nil); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, store, ServerConfig{})
	client, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for _, how := range []string{"fetch", "hit"} {
		if d, err := client.Open("/data/empty"); err != nil || len(d) != 0 {
			t.Errorf("%s: Open = %q, %v; want empty, nil", how, d, err)
		}
	}
	if st := client.Stats(); st.Fetches != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want one fetch then one hit", st)
	}
}

// TestNotFoundOpensLeaveNothingBehind: a path enters the client's ID
// space when a reply delivers it, so opens the server answers with
// ErrNotFound leave no interned string, map entry or data slot behind.
func TestNotFoundOpensLeaveNothingBehind(t *testing.T) {
	_, addr := startServer(t, seededStore(t, 2), ServerConfig{})
	client, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Open("/data/f000"); err != nil {
		t.Fatal(err)
	}
	size := func() (int, int) {
		client.mu.Lock()
		defer client.mu.Unlock()
		return client.ids.Len(), len(client.data)
	}
	ids, slots := size()
	for i := 0; i < 10000; i++ {
		if _, err := client.Open(fmt.Sprintf("/missing/%d", i)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("open %d: err = %v, want ErrNotFound", i, err)
		}
	}
	if gotIDs, gotSlots := size(); gotIDs != ids || gotSlots != slots {
		t.Errorf("after 10000 not-found opens: %d interned paths and %d data slots, were %d and %d", gotIDs, gotSlots, ids, slots)
	}
	if d, err := client.Open("/data/f001"); err != nil || string(d) != "contents of /data/f001" {
		t.Errorf("open after the not-found opens = %q, %v", d, err)
	}
}
