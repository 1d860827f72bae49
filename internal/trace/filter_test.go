package trace

import (
	"testing"
)

func mkEvents() []Event {
	return []Event{
		{Op: OpOpen, Client: 1, UID: 10, File: 0},
		{Op: OpWrite, Client: 2, UID: 10, File: 1},
		{Op: OpOpen, Client: 1, UID: 20, File: 2},
		{Op: OpStat, Client: 3, UID: 20, File: 0},
		{Op: OpOpen, Client: 2, UID: 10, File: 1},
	}
}

func TestByOp(t *testing.T) {
	evs := mkEvents()
	opens := ByOp(evs, OpOpen)
	if len(opens) != 3 {
		t.Fatalf("ByOp(open) len = %d, want 3", len(opens))
	}
	both := ByOp(evs, OpOpen, OpWrite)
	if len(both) != 4 || cap(both) != 4 {
		t.Fatalf("ByOp(open,write) len %d cap %d, want both 4", len(both), cap(both))
	}
	if both[3] != evs[4] || both[1] != evs[1] {
		t.Errorf("ByOp(open,write) = %+v, out of order", both)
	}
	if got := ByOp(nil, OpOpen); got != nil {
		t.Errorf("ByOp(nil) = %v, want nil", got)
	}
}

func TestByClient(t *testing.T) {
	evs := mkEvents()
	c1 := ByClient(evs, 1)
	if len(c1) != 2 {
		t.Fatalf("ByClient(1) len = %d, want 2", len(c1))
	}
	for _, ev := range c1 {
		if ev.Client != 1 {
			t.Errorf("ByClient returned client %d", ev.Client)
		}
	}
	if got := ByClient(evs, 99); len(got) != 0 {
		t.Errorf("ByClient(99) len = %d, want 0", len(got))
	}
}

func TestByUID(t *testing.T) {
	evs := mkEvents()
	if got := ByUID(evs, 10); len(got) != 3 {
		t.Errorf("ByUID(10) len = %d, want 3", len(got))
	}
	if got := ByUID(evs, 20); len(got) != 2 {
		t.Errorf("ByUID(20) len = %d, want 2", len(got))
	}
}

func TestHead(t *testing.T) {
	evs := mkEvents()
	tests := []struct {
		n, want int
	}{
		{0, 0}, {2, 2}, {5, 5}, {100, 5}, {-1, 0},
	}
	for _, tt := range tests {
		if got := Head(evs, tt.n); len(got) != tt.want {
			t.Errorf("Head(%d) len = %d, want %d", tt.n, len(got), tt.want)
		}
	}
	// Head must copy: mutating the result must not touch the input.
	h := Head(evs, 2)
	h[0].Client = 42
	if evs[0].Client == 42 {
		t.Error("Head aliases the input slice")
	}
}

func TestClients(t *testing.T) {
	got := Clients(mkEvents())
	want := []uint16{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("Clients = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Clients = %v, want %v (first-appearance order)", got, want)
		}
	}
}

func TestIDs(t *testing.T) {
	got := IDs(mkEvents())
	want := []FileID{0, 1, 2, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", got, want)
		}
	}
}

func TestSummarize(t *testing.T) {
	tr := NewTrace()
	// Three opens of "a", one of "b", one write, one create.
	tr.Append(Event{Op: OpOpen, Client: 1}, "a")
	tr.Append(Event{Op: OpOpen, Client: 1}, "a")
	tr.Append(Event{Op: OpOpen, Client: 2}, "b")
	tr.Append(Event{Op: OpOpen, Client: 2}, "a")
	tr.Append(Event{Op: OpWrite, Client: 1}, "a")
	tr.Append(Event{Op: OpCreate, Client: 1}, "c")

	s := Summarize(tr)
	if s.Events != 6 || s.Opens != 4 || s.Writes != 1 {
		t.Errorf("counts = %+v", s)
	}
	if s.UniqueFiles != 3 {
		t.Errorf("UniqueFiles = %d, want 3", s.UniqueFiles)
	}
	if s.Clients != 2 {
		t.Errorf("Clients = %d, want 2", s.Clients)
	}
	// repeats: "a" opened 3 times -> 2 repeats; "b" once -> 0. 2/4.
	if s.RepeatFraction != 0.5 {
		t.Errorf("RepeatFraction = %v, want 0.5", s.RepeatFraction)
	}
	// mutating = write + create = 2 of 6 events.
	if want := 2.0 / 6.0; s.WriteFraction < want-1e-9 || s.WriteFraction > want+1e-9 {
		t.Errorf("WriteFraction = %v, want %v", s.WriteFraction, want)
	}
	if s.Top10Share <= 0 || s.Top10Share > 1 {
		t.Errorf("Top10Share = %v out of range", s.Top10Share)
	}
	if s.String() == "" {
		t.Error("String() empty")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(NewTrace())
	if s.Events != 0 || s.RepeatFraction != 0 || s.WriteFraction != 0 || s.Top10Share != 0 {
		t.Errorf("empty trace stats = %+v", s)
	}
}
