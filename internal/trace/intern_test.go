package trace

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestInternerDenseIDs(t *testing.T) {
	in := NewInterner()
	for i := 0; i < 100; i++ {
		id := in.Intern(fmt.Sprintf("/f/%d", i))
		if id != FileID(i) {
			t.Fatalf("Intern #%d = %d, want dense id %d", i, id, i)
		}
	}
	if in.Len() != 100 {
		t.Fatalf("Len = %d, want 100", in.Len())
	}
}

func TestInternerIdempotent(t *testing.T) {
	in := NewInterner()
	a := in.Intern("/etc/passwd")
	b := in.Intern("/etc/passwd")
	if a != b {
		t.Errorf("re-interning gave %d then %d", a, b)
	}
	if in.Len() != 1 {
		t.Errorf("Len = %d, want 1", in.Len())
	}
}

func TestInternerLookupAndPath(t *testing.T) {
	in := NewInterner()
	id := in.Intern("x")
	if got := in.Path(id); got != "x" {
		t.Errorf("Path(%d) = %q, want %q", id, got, "x")
	}
	if got, ok := in.Lookup("x"); !ok || got != id {
		t.Errorf("Lookup(x) = %d,%v", got, ok)
	}
	if _, ok := in.Lookup("missing"); ok {
		t.Error("Lookup(missing) reported found")
	}
	if got := in.Path(999); got != "" {
		t.Errorf("Path(999) = %q, want empty", got)
	}
}

// Property: Path(Intern(p)) == p for any path.
func TestInternerRoundTripProperty(t *testing.T) {
	in := NewInterner()
	f := func(p string) bool {
		return in.Path(in.Intern(p)) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
