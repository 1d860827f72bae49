package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"time"
)

// Streaming I/O
//
// The paper's traces span up to a year; Scanner and Writer process the
// two formats record-at-a-time so tools can filter or transform traces
// whose event list does not fit in memory. Only the path table (one entry
// per distinct file) is kept resident. Each format has one record decoder
// and one record encoder; the whole-trace ReadText/ReadBinary drain a
// Scanner and WriteText/WriteBinary loop over the same encoder.

// validPath is the one path rule of both formats, applied by every encoder
// and decoder: a path is non-empty, at most maxPathLen bytes, and holds no
// line break, which would end a text record.
func validPath[P string | []byte](p P) bool {
	if len(p) == 0 || len(p) > maxPathLen {
		return false
	}
	for i := 0; i < len(p); i++ {
		if c := p[i]; c <= '\r' && (c == '\n' || c == '\r') {
			return false
		}
	}
	return true
}

// maxUS bounds a record's time in microseconds: the most a Duration holds.
const maxUS = math.MaxInt64 / int64(time.Microsecond)

// checkRecord applies the rules both encoders share to a record: its op is
// defined and, at the first use of its path in the stream, the path passes
// validPath.
func checkRecord(ev Event, path string, isNew bool) error {
	if !ev.Op.Valid() {
		return fmt.Errorf("invalid op %d", ev.Op)
	}
	if isNew && !validPath(path) {
		return fmt.Errorf("invalid path %q", path)
	}
	return nil
}

// recordDecoder reads one format's records.
type recordDecoder interface {
	// decode reads the next record into ev, interning its path into
	// paths. It returns io.EOF at the end of input.
	decode(ev *Event, paths *Interner) error
}

// Scanner reads trace records one at a time.
type Scanner struct {
	dec   recordDecoder
	paths *Interner
	ev    Event
	err   error
	done  bool
}

func newScanner(dec recordDecoder) *Scanner {
	return &Scanner{dec: dec, paths: NewInterner()}
}

// NewScanner returns a Scanner over either format: input that starts with
// the binary magic is read as binary, anything else as text.
func NewScanner(r io.Reader) (*Scanner, error) {
	br := bufio.NewReader(r)
	if magic, _ := br.Peek(len(binaryMagic)); string(magic) == string(binaryMagic[:]) {
		return NewBinaryScanner(br)
	}
	return NewTextScanner(br)
}

// Read decodes a whole trace in either format (see NewScanner).
func Read(r io.Reader) (*Trace, error) { return drain(NewScanner(r)) }

// drain reads every record of s into a trace whose Paths is s's interner.
func drain(s *Scanner, err error) (*Trace, error) {
	if err != nil {
		return nil, err
	}
	var events []Event
	for s.Scan() {
		events = append(events, s.ev)
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	return &Trace{Events: events, Paths: s.paths}, nil
}

// Scan advances to the next record, reporting whether one is available.
func (s *Scanner) Scan() bool {
	if s.done {
		return false
	}
	if err := s.dec.decode(&s.ev, s.paths); err != nil {
		s.done = true
		if err != io.EOF {
			s.err = err
		}
		return false
	}
	return true
}

// Event returns the current record.
func (s *Scanner) Event() Event { return s.ev }

// Path returns the current record's path.
func (s *Scanner) Path() string { return s.paths.Path(s.ev.File) }

// Paths returns the interner accumulated so far (dense ids in
// first-appearance order, matching the in-memory readers).
func (s *Scanner) Paths() *Interner { return s.paths }

// Err returns the first non-EOF error encountered.
func (s *Scanner) Err() error { return s.err }

// outputBlock is how many encoded bytes an output gathers before handing
// them to its writer. A record is at most maxPathLen and a few dozen bytes
// more, so a buffer of twice the block never grows.
const outputBlock = 8 << 10

// output gathers encoded records and hands them to w a block at a time.
// The encoders append straight into buf, so a record is copied once, into
// w.
type output struct {
	w   io.Writer
	buf []byte
}

func newOutput(w io.Writer) output {
	return output{w: w, buf: make([]byte, 0, 2*outputBlock)}
}

// wrote hands a full block to w; call it after appending each record.
func (o *output) wrote() error {
	if len(o.buf) < outputBlock {
		return nil
	}
	return o.flush()
}

// flush hands everything gathered to w.
func (o *output) flush() error {
	if len(o.buf) == 0 {
		return nil
	}
	_, err := o.w.Write(o.buf)
	o.buf = o.buf[:0]
	return err
}

// Writer emits trace records one at a time.
type Writer struct {
	output
	// encode appends one record of the format to b.
	encode func(b []byte, ev Event, path string) ([]byte, error)
}

// Write emits one record. The event's File field is ignored; identity
// comes from path.
func (w *Writer) Write(ev Event, path string) (err error) {
	if w.buf, err = w.encode(w.buf, ev, path); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return w.wrote()
}

// Flush forces buffered records out. Call it once after the last Write.
func (w *Writer) Flush() error { return w.flush() }
