package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// Text format
//
// A human-readable, line-oriented trace encoding, one record per line:
//
//	#aggtrace v1
//	<time_us> <client> <pid> <uid> <op> <path>
//
// Fields are tab-separated. time_us is a decimal offset in microseconds
// from the start of the trace. op is a mnemonic from Op.String. The path is
// the last field, so it may hold tabs, but not a line break. Lines that are
// empty or start with '#' (other than the header) are ignored, which allows
// annotated traces.

const textHeader = "#aggtrace v1"

// appendTextLine appends ev's line, naming its file by path, to b. isNew
// marks the path's first use in the stream, when it is checked. A line that
// breaks the format is refused before anything is appended.
func appendTextLine(b []byte, ev Event, path string, isNew bool) ([]byte, error) {
	if err := checkRecord(ev, path, isNew); err != nil {
		return b, err
	}
	b = strconv.AppendInt(b, ev.Time.Microseconds(), 10)
	b = append(b, '\t')
	b = strconv.AppendUint(b, uint64(ev.Client), 10)
	b = append(b, '\t')
	b = strconv.AppendUint(b, uint64(ev.PID), 10)
	b = append(b, '\t')
	b = strconv.AppendUint(b, uint64(ev.UID), 10)
	b = append(b, '\t')
	b = append(b, opNames[ev.Op]...)
	b = append(b, '\t')
	b = append(b, path...)
	return append(b, '\n'), nil
}

// parseTextLine decodes one record line; the event's File is left zero.
func parseTextLine(raw string) (Event, string, error) {
	var fields [6]string
	for i := range 5 {
		var ok bool
		if fields[i], raw, ok = strings.Cut(raw, "\t"); !ok {
			return Event{}, "", fmt.Errorf("want 6 tab-separated fields, got %d", i+1)
		}
	}
	fields[5] = raw
	us, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return Event{}, "", fmt.Errorf("time: %w", err)
	}
	if us < -maxUS || us > maxUS {
		return Event{}, "", fmt.Errorf("time %d out of range", us)
	}
	client, err := strconv.ParseUint(fields[1], 10, 16)
	if err != nil {
		return Event{}, "", fmt.Errorf("client: %w", err)
	}
	pid, err := strconv.ParseUint(fields[2], 10, 32)
	if err != nil {
		return Event{}, "", fmt.Errorf("pid: %w", err)
	}
	uid, err := strconv.ParseUint(fields[3], 10, 32)
	if err != nil {
		return Event{}, "", fmt.Errorf("uid: %w", err)
	}
	op, err := ParseOp(fields[4])
	if err != nil {
		return Event{}, "", err
	}
	if !validPath(fields[5]) {
		return Event{}, "", fmt.Errorf("invalid path %q", fields[5])
	}
	ev := Event{
		Time:   time.Duration(us) * time.Microsecond,
		Client: uint16(client),
		PID:    uint32(pid),
		UID:    uint32(uid),
		Op:     op,
	}
	return ev, fields[5], nil
}

// textDecoder decodes the lines that follow a text header.
type textDecoder struct {
	sc   *bufio.Scanner
	line int
}

// decode reads the next record into ev, interning its path into paths. It
// returns io.EOF at the end of input.
func (d *textDecoder) decode(ev *Event, paths *Interner) error {
	for d.sc.Scan() {
		d.line++
		raw := strings.TrimRight(d.sc.Text(), "\r")
		if raw == "" || raw[0] == '#' {
			continue
		}
		e, path, err := parseTextLine(raw)
		if err != nil {
			return fmt.Errorf("trace: line %d: %w", d.line, err)
		}
		e.File = paths.Intern(path)
		*ev = e
		return nil
	}
	if err := d.sc.Err(); err != nil {
		return err
	}
	return io.EOF
}

// NewTextScanner returns a Scanner over the text format; it consumes and
// validates the header immediately.
func NewTextScanner(r io.Reader) (*Scanner, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("trace: empty input, want %q header", textHeader)
	}
	if got := strings.TrimRight(sc.Text(), "\r"); got != textHeader {
		return nil, fmt.Errorf("trace: bad header %q, want %q", got, textHeader)
	}
	return newScanner(&textDecoder{sc: sc, line: 1}), nil
}

// ReadText decodes a trace in the text format produced by WriteText.
func ReadText(r io.Reader) (*Trace, error) { return drain(NewTextScanner(r)) }

// newTextOutput starts a text trace on w with its header line.
func newTextOutput(w io.Writer) output {
	o := newOutput(w)
	o.buf = append(o.buf, textHeader+"\n"...)
	return o
}

// NewTextWriter returns a Writer in the text format; the header is
// written immediately.
func NewTextWriter(w io.Writer) (*Writer, error) {
	// The Writer keeps no path table, so it checks every line's path.
	return &Writer{output: newTextOutput(w), encode: func(b []byte, ev Event, path string) ([]byte, error) {
		return appendTextLine(b, ev, path, true)
	}}, nil
}

// WriteText encodes the trace in the text format described above.
func WriteText(w io.Writer, t *Trace) (err error) {
	o := newTextOutput(w)
	used := make([]bool, t.Paths.Len()) // the files written so far
	for i := range t.Events {
		ev := t.Events[i]
		path := t.Paths.Path(ev.File)
		if path == "" {
			return fmt.Errorf("trace: event %d references unknown file id %d", i, ev.File)
		}
		if o.buf, err = appendTextLine(o.buf, ev, path, !used[ev.File]); err != nil {
			return fmt.Errorf("trace: event %d: %w", i, err)
		}
		used[ev.File] = true
		if err := o.wrote(); err != nil {
			return err
		}
	}
	return o.flush()
}
