// Package trace defines the file-access trace substrate used throughout the
// library: the event record model (patterned after the system-call-level
// records exposed by CMU's DFSTrace toolchain), streaming text and binary
// codecs, filters, and summary statistics.
//
// The aggregating-cache model in the paper deliberately ignores precise
// timing and tracks only the observed *sequence* of file accesses; the Time
// field is carried for completeness but nothing in the library depends on
// it.
package trace

import (
	"fmt"
	"time"
)

// FileID identifies a file within a trace. IDs are dense: an Interner
// assigns them in first-use order starting at zero, so they double as
// indices into per-file tables.
type FileID uint32

// GrowDense extends a dense per-file table so that index id, which must be
// at or past its end, is addressable: the table becomes id+1+len(s)/2
// long, over-allocating by half to amortize regrowth, and the new slots
// are zero. The per-file tables that grow on first sight of an id share
// this rule, so each is at most 1.5 x (largest id seen + 1) long.
func GrowDense[T any](s []T, id FileID) []T {
	grown := make([]T, int(id)+1+len(s)/2)
	copy(grown, s)
	return grown
}

// Op is the kind of file-system operation an Event records.
type Op uint8

// Operations recorded in a trace. Open is the only operation the grouping
// model consumes (the paper measures whole-file caching on open requests);
// the rest are carried so that workload generators can express write-heavy
// behaviour and so trace tooling round-trips foreign traces faithfully.
const (
	OpOpen Op = iota + 1
	OpClose
	OpRead
	OpWrite
	OpCreate
	OpUnlink
	OpStat
)

var opNames = [...]string{
	OpOpen:   "open",
	OpClose:  "close",
	OpRead:   "read",
	OpWrite:  "write",
	OpCreate: "create",
	OpUnlink: "unlink",
	OpStat:   "stat",
}

// String returns the lower-case mnemonic for op ("open", "write", ...).
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether op is one of the defined operations.
func (o Op) Valid() bool {
	return o >= OpOpen && o <= OpStat
}

// ParseOp converts a mnemonic produced by Op.String back into an Op.
func ParseOp(s string) (Op, error) {
	for i, name := range opNames {
		if name != "" && name == s {
			return Op(i), nil
		}
	}
	return 0, fmt.Errorf("unknown trace op %q", s)
}

// Event is a single record in a file-access trace. Its fields are ordered
// widest first, so an event is 24 bytes, not the 32 that declaration order
// padded it to: a synthesized trace holds tens of millions of them.
type Event struct {
	// Time is the offset from the start of the trace. The grouping model
	// never consults it (see the package comment).
	Time time.Duration
	// PID and UID identify the driving process and user, when known.
	PID uint32
	UID uint32
	// File is the interned identity of the file operated on.
	File FileID
	// Client identifies the machine or workstation issuing the request.
	Client uint16
	// Op is the operation performed.
	Op Op
}

// Trace is an in-memory file-access trace: an event sequence plus the
// interner that maps FileIDs back to path names.
type Trace struct {
	Events []Event
	Paths  *Interner
}

// NewTrace returns an empty trace with a fresh interner.
func NewTrace() *Trace {
	return &Trace{Paths: NewInterner()}
}

// Append adds an event for the file at path, interning the path as needed.
func (t *Trace) Append(ev Event, path string) {
	ev.File = t.Paths.Intern(path)
	t.Events = append(t.Events, ev)
}

// Len returns the number of events in the trace.
func (t *Trace) Len() int { return len(t.Events) }

// Opens returns the sub-sequence of open events. The returned slice is
// freshly allocated; mutating it does not affect the trace.
func (t *Trace) Opens() []Event { return ByOp(t.Events, OpOpen) }

// OpenIDs returns the sequence of FileIDs touched by open events, which is
// the exact input consumed by the successor model and the cache simulators.
// The opens are counted first, so the result is sized exactly.
func (t *Trace) OpenIDs() []FileID {
	n := 0
	for i := range t.Events {
		if t.Events[i].Op == OpOpen {
			n++
		}
	}
	ids := make([]FileID, 0, n)
	for i := range t.Events {
		if t.Events[i].Op == OpOpen {
			ids = append(ids, t.Events[i].File)
		}
	}
	return ids
}
