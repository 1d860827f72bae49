package trace

import (
	"reflect"
	"testing"
	"time"
)

func TestOpString(t *testing.T) {
	tests := []struct {
		op   Op
		want string
	}{
		{OpOpen, "open"},
		{OpClose, "close"},
		{OpRead, "read"},
		{OpWrite, "write"},
		{OpCreate, "create"},
		{OpUnlink, "unlink"},
		{OpStat, "stat"},
		{Op(0), "op(0)"},
		{Op(200), "op(200)"},
	}
	for _, tt := range tests {
		if got := tt.op.String(); got != tt.want {
			t.Errorf("Op(%d).String() = %q, want %q", tt.op, got, tt.want)
		}
	}
}

func TestParseOpRoundTrip(t *testing.T) {
	for op := OpOpen; op <= OpStat; op++ {
		got, err := ParseOp(op.String())
		if err != nil {
			t.Fatalf("ParseOp(%q): %v", op.String(), err)
		}
		if got != op {
			t.Errorf("ParseOp(%q) = %v, want %v", op.String(), got, op)
		}
	}
}

func TestParseOpUnknown(t *testing.T) {
	if _, err := ParseOp("mmap"); err == nil {
		t.Error("ParseOp(\"mmap\") succeeded, want error")
	}
	if _, err := ParseOp(""); err == nil {
		t.Error("ParseOp(\"\") succeeded, want error")
	}
}

func TestOpValid(t *testing.T) {
	if Op(0).Valid() {
		t.Error("Op(0).Valid() = true")
	}
	if !OpOpen.Valid() || !OpStat.Valid() {
		t.Error("defined ops reported invalid")
	}
	if Op(8).Valid() {
		t.Error("Op(8).Valid() = true")
	}
}

func TestTraceAppendInterns(t *testing.T) {
	tr := NewTrace()
	tr.Append(Event{Op: OpOpen}, "/bin/sh")
	tr.Append(Event{Op: OpOpen}, "/bin/make")
	tr.Append(Event{Op: OpOpen}, "/bin/sh")

	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	if tr.Events[0].File != tr.Events[2].File {
		t.Error("same path interned to different ids")
	}
	if tr.Events[0].File == tr.Events[1].File {
		t.Error("different paths interned to same id")
	}
	if tr.Paths.Len() != 2 {
		t.Errorf("Paths.Len = %d, want 2", tr.Paths.Len())
	}
}

func TestTraceOpenIDs(t *testing.T) {
	tr := NewTrace()
	tr.Append(Event{Op: OpOpen}, "a")
	tr.Append(Event{Op: OpWrite}, "a")
	tr.Append(Event{Op: OpOpen}, "b")
	tr.Append(Event{Op: OpClose}, "b")
	tr.Append(Event{Op: OpOpen}, "a")

	ids := tr.OpenIDs()
	want := []FileID{0, 1, 0}
	if len(ids) != len(want) || cap(ids) != len(want) {
		t.Fatalf("OpenIDs len %d cap %d, want both %d", len(ids), cap(ids), len(want))
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("OpenIDs[%d] = %d, want %d", i, ids[i], want[i])
		}
	}
}

func TestTraceOpens(t *testing.T) {
	tr := NewTrace()
	tr.Append(Event{Op: OpOpen, Time: time.Second}, "a")
	tr.Append(Event{Op: OpWrite}, "a")
	opens := tr.Opens()
	if len(opens) != 1 || cap(opens) != 1 || opens[0].Time != time.Second {
		t.Fatalf("Opens = %+v (cap %d), want single open at 1s", opens, cap(opens))
	}
}

// TestEventSize pins the field order: a synthesized trace holds tens of
// millions of events, and declaration order once padded each to 32 bytes.
func TestEventSize(t *testing.T) {
	if got := reflect.TypeOf(Event{}).Size(); got != 24 {
		t.Errorf("Event is %d bytes, want 24", got)
	}
}
