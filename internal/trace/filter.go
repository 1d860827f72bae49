package trace

// ByOp returns the events whose operation is one of ops, in order, or nil
// if there are none. The matches are counted first, so the result is sized
// exactly.
func ByOp(events []Event, ops ...Op) []Event {
	n := 0
	for i := range events {
		if hasOp(ops, events[i].Op) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	for i := range events {
		if hasOp(ops, events[i].Op) {
			out = append(out, events[i])
		}
	}
	return out
}

func hasOp(ops []Op, op Op) bool {
	for _, o := range ops {
		if o == op {
			return true
		}
	}
	return false
}

// ByClient returns the events issued by client, in order.
func ByClient(events []Event, client uint16) []Event {
	var out []Event
	for _, ev := range events {
		if ev.Client == client {
			out = append(out, ev)
		}
	}
	return out
}

// ByUID returns the events issued by uid, in order.
func ByUID(events []Event, uid uint32) []Event {
	var out []Event
	for _, ev := range events {
		if ev.UID == uid {
			out = append(out, ev)
		}
	}
	return out
}

// Head returns the first n events (or all of them if the trace is shorter).
// The returned slice is freshly allocated.
func Head(events []Event, n int) []Event {
	if n > len(events) {
		n = len(events)
	}
	if n < 0 {
		n = 0
	}
	out := make([]Event, n)
	copy(out, events[:n])
	return out
}

// Clients returns the distinct client IDs appearing in events, in order of
// first appearance.
func Clients(events []Event) []uint16 {
	seen := make(map[uint16]bool)
	var out []uint16
	for _, ev := range events {
		if !seen[ev.Client] {
			seen[ev.Client] = true
			out = append(out, ev.Client)
		}
	}
	return out
}

// IDs extracts the FileID sequence from events.
func IDs(events []Event) []FileID {
	out := make([]FileID, len(events))
	for i, ev := range events {
		out[i] = ev.File
	}
	return out
}
