package trace

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

func randomTrace(t *testing.T, seed int64, n int) *Trace {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr := NewTrace()
	var now time.Duration
	paths := []string{"/bin/sh", "/usr/bin/make", "/src/main.c", "/src/util.c", "/tmp/out", "/home/u/.rc"}
	for i := 0; i < n; i++ {
		now += time.Duration(rng.Intn(5000)) * time.Microsecond
		tr.Append(Event{
			Time:   now,
			Client: uint16(rng.Intn(4)),
			PID:    uint32(rng.Intn(1 << 15)),
			UID:    uint32(rng.Intn(100)),
			Op:     Op(rng.Intn(int(OpStat)) + 1),
		}, paths[rng.Intn(len(paths))])
	}
	return tr
}

func tracesEqual(a, b *Trace) bool {
	if len(a.Events) != len(b.Events) {
		return false
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			return false
		}
		if a.Paths.Path(a.Events[i].File) != b.Paths.Path(b.Events[i].File) {
			return false
		}
	}
	return true
}

func TestTextRoundTrip(t *testing.T) {
	tr := randomTrace(t, 1, 500)
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if !tracesEqual(tr, got) {
		t.Error("text round trip changed the trace")
	}
}

func TestTextRejectsBadInput(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"bad header", "not a trace\n"},
		{"short line", textHeader + "\n1\t2\t3\n"},
		{"bad op", textHeader + "\n0\t0\t0\t0\tmmap\t/x\n"},
		{"bad time", textHeader + "\nxx\t0\t0\t0\topen\t/x\n"},
		{"bad client", textHeader + "\n0\t99999\t0\t0\topen\t/x\n"},
		{"empty path", textHeader + "\n0\t0\t0\t0\topen\t\n"},
		{"carriage return in path", textHeader + "\n0\t0\t0\t0\topen\t/a\rb\n"},
		{"time out of range", textHeader + "\n9223372036854775807\t0\t0\t0\topen\t/x\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadText(strings.NewReader(tt.in)); err == nil {
				t.Errorf("ReadText accepted %q", tt.in)
			}
		})
	}
}

func TestTextSkipsCommentsAndBlanks(t *testing.T) {
	in := textHeader + "\n\n# a comment\n5\t1\t2\t3\topen\t/x\n"
	tr, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
	ev := tr.Events[0]
	if ev.Time != 5*time.Microsecond || ev.Client != 1 || ev.PID != 2 || ev.UID != 3 || ev.Op != OpOpen {
		t.Errorf("decoded event = %+v", ev)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 1000} {
		tr := randomTrace(t, int64(n)+7, n)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			t.Fatalf("WriteBinary(n=%d): %v", n, err)
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("ReadBinary(n=%d): %v", n, err)
		}
		if !tracesEqual(tr, got) {
			t.Errorf("binary round trip changed the trace (n=%d)", n)
		}
	}
}

func TestBinaryRejectsBadMagic(t *testing.T) {
	_, err := ReadBinary(strings.NewReader("XXXXjunk"))
	if err != ErrBadMagic {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestBinaryRejectsTruncation(t *testing.T) {
	tr := randomTrace(t, 3, 50)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Chop at several offsets inside the record stream; all must error,
	// none may panic. (Cutting at exactly magic+version yields a valid
	// empty trace, so cuts start inside the first record.)
	for _, cut := range []int{6, 7, len(full) / 2, len(full) - 1} {
		if cut >= len(full) {
			continue
		}
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncated at %d: decode succeeded", cut)
		}
	}
}

func TestBinarySmallerThanText(t *testing.T) {
	tr := randomTrace(t, 9, 2000)
	var tb, bb bytes.Buffer
	if err := WriteText(&tb, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bb, tr); err != nil {
		t.Fatal(err)
	}
	if bb.Len() >= tb.Len() {
		t.Errorf("binary (%d bytes) not smaller than text (%d bytes)", bb.Len(), tb.Len())
	}
}

func TestWriteBinaryRejectsMalformedTraces(t *testing.T) {
	// Time going backwards.
	back := NewTrace()
	back.Append(Event{Op: OpOpen, Time: 5 * time.Microsecond}, "/a")
	back.Append(Event{Op: OpOpen, Time: 1 * time.Microsecond}, "/b")
	var buf bytes.Buffer
	if err := WriteBinary(&buf, back); err == nil {
		t.Error("backwards time accepted")
	}

	// Event referencing an id the interner never assigned.
	bad := NewTrace()
	bad.Append(Event{Op: OpOpen}, "/a")
	bad.Events[0].File = 7 // skips ahead of interner order
	buf.Reset()
	if err := WriteBinary(&buf, bad); err == nil {
		t.Error("skip-ahead file id accepted")
	}

	// Same hole breaks the text writer's path lookup.
	buf.Reset()
	if err := WriteText(&buf, bad); err == nil {
		t.Error("unknown file id accepted by text writer")
	}
}

// binaryRecord is one hand-built binary record: zero time delta, client,
// pid and uid, op open, then file and, when path is not empty, the path.
func binaryRecord(file byte, path string) []byte {
	rec := []byte{0, 0, 0, 0, byte(OpOpen), file}
	if path != "" {
		rec = append(append(rec, byte(len(path))), path...)
	}
	return rec
}

// repeatedPathTrace gives a second "new" file id the path of the first,
// then uses that id again.
var repeatedPathTrace = bytes.Join([][]byte{
	[]byte("AGTR\x01"), binaryRecord(0, "/a"), binaryRecord(1, "/a"), binaryRecord(1, ""),
}, nil)

func TestBinaryDecodeErrors(t *testing.T) {
	tests := []struct {
		name, in, want string
	}{
		{"repeated path", string(repeatedPathTrace), "trace: record 1 new file id 1 repeats the path of file 0"},
		{"client out of range", "AGTR\x01\x00\xf0\xa2\x04", "trace: record 0 client 70000 out of range"},
		{"path with newline", "AGTR\x01" + string(binaryRecord(0, "/a\nb")), `trace: record 0 invalid path "/a\nb"`},
		{"empty path", "AGTR\x01\x00\x00\x00\x00\x01\x00\x00", "trace: record 0 path length 0 out of range"},
		{"time overflow", "AGTR\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01", "trace: record 0 time out of range"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadBinary(strings.NewReader(tt.in)); err == nil || err.Error() != tt.want {
				t.Errorf("ReadBinary: err = %v, want %q", err, tt.want)
			}
			s, err := NewBinaryScanner(strings.NewReader(tt.in))
			if err != nil {
				t.Fatal(err)
			}
			for s.Scan() {
			}
			if err := s.Err(); err == nil || err.Error() != tt.want {
				t.Errorf("Scanner: err = %v, want %q", err, tt.want)
			}
		})
	}
}

// encoders are the four ways to write a trace: each format's whole-trace
// writer and its streaming Writer.
var encoders = []struct {
	Format, Name string
	Write        func(io.Writer, *Trace) error
}{
	{"text", "WriteText", WriteText},
	{"binary", "WriteBinary", WriteBinary},
	{"text", "TextWriter", streamWrite(NewTextWriter)},
	{"binary", "BinaryWriter", streamWrite(NewBinaryWriter)},
}

func streamWrite(open func(io.Writer) (*Writer, error)) func(io.Writer, *Trace) error {
	return func(out io.Writer, tr *Trace) error {
		w, err := open(out)
		if err != nil {
			return err
		}
		for _, ev := range tr.Events {
			if err := w.Write(ev, tr.Paths.Path(ev.File)); err != nil {
				return err
			}
		}
		return w.Flush()
	}
}

// Every encoder refuses what either decoder would refuse or misread, so
// whatever one writes, both formats read back unchanged.
func TestEncodersShareOneRecordRule(t *testing.T) {
	refused := []struct {
		name, path string
		op         Op
	}{
		{"empty path", "", OpOpen},
		{"path over the limit", "/" + strings.Repeat("x", maxPathLen), OpOpen},
		{"path with newline", "/a\n0\t0\t0\t0\topen\t/evil", OpOpen},
		{"path with carriage return", "/a\r", OpOpen},
		{"undefined op", "/a", OpStat + 1},
	}
	for _, tt := range refused {
		tr := NewTrace()
		tr.Append(Event{Op: OpOpen}, "/ok")
		tr.Append(Event{Op: tt.op}, tt.path)
		for _, enc := range encoders {
			if err := enc.Write(io.Discard, tr); err == nil {
				t.Errorf("%s: %s accepted", tt.name, enc.Name)
			}
		}
	}

	accepted := NewTrace()
	accepted.Append(Event{Op: OpOpen}, "/"+strings.Repeat("x", maxPathLen-1))
	accepted.Append(Event{Op: OpOpen}, "/with\ttab")
	for _, enc := range encoders {
		var buf bytes.Buffer
		if err := enc.Write(&buf, accepted); err != nil {
			t.Fatalf("%s: %v", enc.Name, err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("%s: read back: %v", enc.Name, err)
		}
		if !tracesEqual(accepted, got) {
			t.Errorf("%s: trace changed on the way back", enc.Name)
		}
	}
}

// NewScanner tells the formats apart from the first bytes alone, so it
// reads either from a reader that cannot seek, one byte at a time.
func TestNewScannerSniffsFormat(t *testing.T) {
	tr := randomTrace(t, 5, 300)
	for _, enc := range encoders {
		var buf bytes.Buffer
		if err := enc.Write(&buf, tr); err != nil {
			t.Fatal(err)
		}
		got, err := Read(iotest.OneByteReader(&buf))
		if err != nil {
			t.Fatalf("%s: %v", enc.Name, err)
		}
		if !tracesEqual(tr, got) {
			t.Errorf("%s: sniffed read changed the trace", enc.Name)
		}
	}
	for _, in := range []string{"", "AG", "AGTR", "junk\n"} {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("Read(%q) succeeded", in)
		}
	}
}
