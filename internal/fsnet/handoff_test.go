package fsnet

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"aggcache/internal/trace"
)

func TestHandoffRequestCodec(t *testing.T) {
	req := handoffRequest{
		Anchor:  "/data/f000",
		Members: []string{"/data/f001", "/data/f002"},
	}
	got, err := decodeHandoffRequest(encodeHandoffRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Errorf("round trip = %+v, want %+v", got, req)
	}

	bad := []handoffRequest{
		{Anchor: "", Members: []string{"/x"}},
		{Anchor: "/x", Members: nil},
		{Anchor: "/x", Members: []string{""}},
		{Anchor: strings.Repeat("p", maxPath+1), Members: []string{"/x"}},
	}
	for _, r := range bad {
		if _, err := decodeHandoffRequest(encodeHandoffRequest(r)); err == nil {
			t.Errorf("invalid request %+v decoded", r)
		}
	}

	full := encodeHandoffRequest(req)
	if _, err := decodeHandoffRequest(full[:len(full)-1]); err == nil {
		t.Error("truncated payload decoded")
	}
	if _, err := decodeHandoffRequest(append(append([]byte{}, full...), 0xff)); err == nil {
		t.Error("trailing garbage decoded")
	}

	// Member count is bounded by the group ceiling.
	over := handoffRequest{Anchor: "/x"}
	for i := 0; i <= maxGroup; i++ {
		over.Members = append(over.Members, fmt.Sprintf("/m%03d", i))
	}
	if _, err := decodeHandoffRequest(encodeHandoffRequest(over)); err == nil {
		t.Error("oversized member list decoded")
	}
}

// TestHandoffInstallsGroup: a handed-off group becomes the receiver's own
// learned state — a later FetchGroup of the anchor delivers the members in
// one round trip, with the documented stats contract intact.
func TestHandoffInstallsGroup(t *testing.T) {
	srv, addr := startServer(t, seededStore(t, 5), ServerConfig{GroupSize: 4})
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	anchor := "/data/f000"
	members := []string{"/data/f001", "/data/f002"}
	if err := c.Handoff(anchor, members); err != nil {
		t.Fatalf("handoff: %v", err)
	}
	st := srv.Stats()
	if st.Handoffs != 1 {
		t.Errorf("Handoffs = %d, want 1", st.Handoffs)
	}
	if st.Requests < st.Cache.Hits+st.Cache.GroupFetches+st.RemoteOpens {
		t.Errorf("stats contract violated after handoff: %+v", st)
	}

	group, err := newRawFetcher(t, addr).fetch(anchor)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, f := range group {
		got[f.Path] = true
	}
	for _, m := range append([]string{anchor}, members...) {
		if !got[m] {
			t.Errorf("%s missing from post-handoff group %v", m, group)
		}
	}
}

// TestHandoffValidation: client-side argument checking and server-side
// tolerance for members the receiving store does not hold.
func TestHandoffValidation(t *testing.T) {
	srv, addr := startServer(t, seededStore(t, 2), ServerConfig{GroupSize: 3})
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Handoff("", []string{"/x"}); err == nil {
		t.Error("empty anchor accepted")
	}
	if err := c.Handoff("/x", nil); err == nil {
		t.Error("empty member list accepted")
	}
	var over []string
	for i := 0; i <= maxGroup; i++ {
		over = append(over, fmt.Sprintf("/m%03d", i))
	}
	if err := c.Handoff("/x", over); err == nil {
		t.Error("oversized member list accepted")
	}

	// A member absent from this store is dropped, not an error
	// (TestHandoffLearnsOnlyStoredPaths).
	if err := c.Handoff("/data/f000", []string{"/data/f001", "/elsewhere/gone"}); err != nil {
		t.Fatalf("handoff with absent member: %v", err)
	}
	if st := srv.Stats(); st.Handoffs != 1 {
		t.Errorf("Handoffs = %d, want 1", st.Handoffs)
	}
}

// TestHandoffLearnsOnlyStoredPaths: like an open, a handoff gives an id
// only to a path the store holds. An anchor the store lacks is answered
// not-found and counts only the request; a member it lacks is dropped
// before learning, so it never takes a share of a successor list.
func TestHandoffLearnsOnlyStoredPaths(t *testing.T) {
	cases := []struct {
		name    string
		stored  []string
		anchor  string
		members []string
		// wantErr: the handoff is answered ErrNotFound.
		wantErr bool
		// wantIDs lists every interned path; wantSucc is the anchor's
		// successor list, by path.
		wantIDs  []string
		wantSucc []string
		// wantFiles is the files the anchor's group fetch staged.
		wantFiles uint64
	}{
		{
			name: "ghost anchor", stored: []string{"/a"},
			anchor: "/ghost", members: []string{"/a", "/nope1", "/nope2"},
			wantErr: true,
		},
		{
			name: "ghost members dropped", stored: []string{"/a", "/b"},
			anchor: "/a", members: []string{"/nope1", "/b", "/nope2"},
			wantIDs: []string{"/a", "/b"}, wantSucc: []string{"/b"}, wantFiles: 2,
		},
		{
			name: "every member a ghost", stored: []string{"/a"},
			anchor: "/a", members: []string{"/nope"},
			wantIDs: []string{"/a"}, wantFiles: 1,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			store := NewStore()
			for _, p := range c.stored {
				if err := store.Put(p, []byte(p)); err != nil {
					t.Fatal(err)
				}
			}
			srv, addr := startServer(t, store, ServerConfig{GroupSize: 4})
			cl, err := Dial(addr, ClientConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			err = cl.Handoff(c.anchor, c.members)
			if c.wantErr != errors.Is(err, ErrNotFound) || (!c.wantErr && err != nil) {
				t.Fatalf("Handoff = %v, want not-found %v", err, c.wantErr)
			}
			var ids []string
			for i := 0; i < srv.ids.Len(); i++ {
				ids = append(ids, srv.ids.Path(trace.FileID(i)))
			}
			if !slices.Equal(ids, c.wantIDs) {
				t.Errorf("interned %v, want %v", ids, c.wantIDs)
			}
			var succ []string
			if id, ok := srv.ids.Lookup(c.anchor); ok {
				srv.aggMu.Lock()
				for _, s := range srv.agg.Tracker().Successors(id) {
					succ = append(succ, srv.ids.Path(s))
				}
				srv.aggMu.Unlock()
			}
			if !slices.Equal(succ, c.wantSucc) {
				t.Errorf("anchor successors %v, want %v", succ, c.wantSucc)
			}
			st := srv.Stats()
			want := uint64(1)
			if c.wantErr {
				want = 0
			}
			if st.Requests != 1 || st.Errors != 1-want || st.Handoffs != want ||
				st.Cache.GroupFetches != want || st.Cache.FilesFetched != c.wantFiles {
				t.Errorf("stats %+v, want 1 request, %d error, %d handoff and group fetch, %d files",
					st, 1-want, want, c.wantFiles)
			}
		})
	}
}

// TestExportGroups: only owned anchors with learned members export, and
// the export is exactly what BuildGroup would serve.
func TestExportGroups(t *testing.T) {
	srv, addr := startServer(t, seededStore(t, 6), ServerConfig{GroupSize: 3, SuccessorCapacity: 2})
	c, err := Dial(addr, ClientConfig{CacheCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Teach the server two chains: f000->f001 and f003->f004.
	for round := 0; round < 3; round++ {
		for _, p := range []string{"/data/f000", "/data/f001", "/data/f003", "/data/f004"} {
			if _, err := c.Open(p); err != nil {
				t.Fatal(err)
			}
		}
	}

	all := srv.ExportGroups(func(string) bool { return true })
	if len(all) == 0 {
		t.Fatal("no groups exported after training")
	}
	byAnchor := map[string][]string{}
	for _, g := range all {
		if g.Anchor == "" || len(g.Members) == 0 {
			t.Errorf("degenerate export %+v", g)
		}
		byAnchor[g.Anchor] = g.Members
	}
	if ms, ok := byAnchor["/data/f000"]; !ok {
		t.Errorf("trained anchor /data/f000 not exported: %v", byAnchor)
	} else {
		found := false
		for _, m := range ms {
			if m == "/data/f001" {
				found = true
			}
		}
		if !found {
			t.Errorf("learned successor missing from export: %v", ms)
		}
	}

	// The owned predicate filters: exporting nothing is valid.
	if got := srv.ExportGroups(func(string) bool { return false }); len(got) != 0 {
		t.Errorf("unowned export returned %v", got)
	}
	only := srv.ExportGroups(func(p string) bool { return p == "/data/f000" })
	for _, g := range only {
		if g.Anchor != "/data/f000" {
			t.Errorf("filter leaked anchor %s", g.Anchor)
		}
	}
	if len(only) != 1 {
		t.Errorf("filtered export = %+v, want exactly the owned anchor", only)
	}
}
