package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Binary format
//
// A compact streaming encoding. Layout:
//
//	magic   "AGTR"            4 bytes
//	version uvarint           currently 1
//	records *
//
// Each record is:
//
//	dtime   uvarint   microsecond delta from the previous record
//	client  uvarint
//	pid     uvarint
//	uid     uvarint
//	op      1 byte
//	file    uvarint   interned FileID
//	[path]  uvarint length + bytes, present only when file equals the
//	        number of distinct files seen so far (i.e. the ID is new)
//
// Because the Interner assigns IDs densely in first-use order, the reader
// knows an ID is new exactly when it equals its running file count, so no
// separate string table or flag byte is needed.

var binaryMagic = [4]byte{'A', 'G', 'T', 'R'}

const (
	binaryVersion = 1
	maxPathLen    = 4096
)

// ErrBadMagic is returned by ReadBinary when the input does not start with
// the trace magic bytes.
var ErrBadMagic = errors.New("trace: bad magic, not a binary trace")

// binaryEncoder encodes the records that follow a binary header; prevUS is
// the time of the last record it encoded.
type binaryEncoder struct{ prevUS int64 }

// appendRecord appends ev's record to b. The record names ev's file by id
// and, when isNew, carries path after it. A record that breaks the format
// is refused before anything is appended.
func (e *binaryEncoder) appendRecord(b []byte, ev Event, id FileID, path string, isNew bool) ([]byte, error) {
	us := ev.Time.Microseconds()
	if us < e.prevUS {
		return b, errors.New("time goes backwards")
	}
	if err := checkRecord(ev, path, isNew); err != nil {
		return b, err
	}
	b = binary.AppendUvarint(b, uint64(us-e.prevUS))
	b = binary.AppendUvarint(b, uint64(ev.Client))
	b = binary.AppendUvarint(b, uint64(ev.PID))
	b = binary.AppendUvarint(b, uint64(ev.UID))
	b = append(b, byte(ev.Op))
	b = binary.AppendUvarint(b, uint64(id))
	if isNew {
		b = binary.AppendUvarint(b, uint64(len(path)))
		b = append(b, path...)
	}
	e.prevUS = us
	return b, nil
}

// binaryDecoder decodes the records that follow a binary header.
type binaryDecoder struct {
	br     *bufio.Reader
	prevUS int64
	rec    int
	// pathBuf is the reused scratch for new-path bytes: the interner
	// copies a new path into its arena, so reading one allocates nothing.
	pathBuf []byte
}

// decode reads the next record into ev, interning a new path into paths.
// It returns io.EOF at a clean end of input.
func (d *binaryDecoder) decode(ev *Event, paths *Interner) error {
	rec := d.rec
	dtime, err := binary.ReadUvarint(d.br)
	if err == io.EOF {
		return io.EOF
	}
	if err != nil {
		return fmt.Errorf("trace: record %d: %w", rec, err)
	}
	if dtime > uint64(maxUS-d.prevUS) {
		return fmt.Errorf("trace: record %d time out of range", rec)
	}
	client, err := binary.ReadUvarint(d.br)
	if err != nil {
		return fmt.Errorf("trace: record %d client: %w", rec, err)
	}
	if client > 0xffff {
		return fmt.Errorf("trace: record %d client %d out of range", rec, client)
	}
	pid, err := binary.ReadUvarint(d.br)
	if err != nil {
		return fmt.Errorf("trace: record %d pid: %w", rec, err)
	}
	uid, err := binary.ReadUvarint(d.br)
	if err != nil {
		return fmt.Errorf("trace: record %d uid: %w", rec, err)
	}
	opByte, err := d.br.ReadByte()
	if err != nil {
		return fmt.Errorf("trace: record %d op: %w", rec, err)
	}
	op := Op(opByte)
	if !op.Valid() {
		return fmt.Errorf("trace: record %d invalid op %d", rec, opByte)
	}
	file, err := binary.ReadUvarint(d.br)
	if err != nil {
		return fmt.Errorf("trace: record %d file: %w", rec, err)
	}
	seen := FileID(paths.Len())
	if file > uint64(seen) {
		return fmt.Errorf("trace: record %d file id %d skips ahead (%d seen)", rec, file, seen)
	}
	if FileID(file) == seen {
		n, err := binary.ReadUvarint(d.br)
		if err != nil {
			return fmt.Errorf("trace: record %d path len: %w", rec, err)
		}
		if n == 0 || n > maxPathLen {
			return fmt.Errorf("trace: record %d path length %d out of range", rec, n)
		}
		if uint64(cap(d.pathBuf)) < n {
			d.pathBuf = make([]byte, n)
		}
		raw := d.pathBuf[:n]
		if _, err := io.ReadFull(d.br, raw); err != nil {
			return fmt.Errorf("trace: record %d path: %w", rec, err)
		}
		if !validPath(raw) {
			return fmt.Errorf("trace: record %d invalid path %q", rec, raw)
		}
		if id := paths.InternBytes(raw); id != seen {
			return fmt.Errorf("trace: record %d new file id %d repeats the path of file %d", rec, seen, id)
		}
	}
	d.prevUS += int64(dtime)
	d.rec++
	*ev = Event{
		Time:   time.Duration(d.prevUS) * time.Microsecond,
		Client: uint16(client),
		PID:    uint32(pid),
		UID:    uint32(uid),
		Op:     op,
		File:   FileID(file),
	}
	return nil
}

// NewBinaryScanner returns a Scanner over the binary format; it consumes
// and validates the magic and version immediately.
func NewBinaryScanner(r io.Reader) (*Scanner, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: read magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, ErrBadMagic
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: read version: %w", err)
	}
	if version != binaryVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", version)
	}
	return newScanner(&binaryDecoder{br: br}), nil
}

// ReadBinary decodes a trace in the binary format produced by WriteBinary.
func ReadBinary(r io.Reader) (*Trace, error) { return drain(NewBinaryScanner(r)) }

// newBinaryOutput starts a binary trace on w: magic, then version.
func newBinaryOutput(w io.Writer) output {
	o := newOutput(w)
	o.buf = binary.AppendUvarint(append(o.buf, binaryMagic[:]...), binaryVersion)
	return o
}

// NewBinaryWriter returns a Writer in the binary format; the magic and
// version are written immediately.
func NewBinaryWriter(w io.Writer) (*Writer, error) {
	var enc binaryEncoder
	ids := NewInterner() // the paths written so far
	return &Writer{output: newBinaryOutput(w), encode: func(b []byte, ev Event, path string) ([]byte, error) {
		id, known := ids.Lookup(path)
		if !known {
			id = FileID(ids.Len())
		}
		b, err := enc.appendRecord(b, ev, id, path, !known)
		if err == nil && !known {
			ids.Intern(path)
		}
		return b, err
	}}, nil
}

// WriteBinary encodes the trace in the binary format described above. Its
// ids must be in first-use order, as an Interner assigns them.
func WriteBinary(w io.Writer, t *Trace) (err error) {
	o := newBinaryOutput(w)
	var (
		enc  binaryEncoder
		seen FileID
	)
	for i := range t.Events {
		ev := t.Events[i]
		if ev.File > seen {
			return fmt.Errorf("trace: event %d file id %d skips ahead of interner order (%d seen)", i, ev.File, seen)
		}
		isNew := ev.File == seen
		var path string
		if isNew {
			if path = t.Paths.Path(ev.File); path == "" {
				return fmt.Errorf("trace: event %d references unknown file id %d", i, ev.File)
			}
			seen++
		}
		if o.buf, err = enc.appendRecord(o.buf, ev, ev.File, path, isNew); err != nil {
			return fmt.Errorf("trace: event %d: %w", i, err)
		}
		if err := o.wrote(); err != nil {
			return err
		}
	}
	return o.flush()
}
