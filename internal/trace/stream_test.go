package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestScannerMatchesInMemoryReaders(t *testing.T) {
	tr := randomTrace(t, 21, 800)
	var text, bin bytes.Buffer
	if err := WriteText(&text, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}

	check := func(name string, s *Scanner) {
		t.Helper()
		i := 0
		for s.Scan() {
			if i >= tr.Len() {
				t.Fatalf("%s: scanner produced extra records", name)
			}
			want := tr.Events[i]
			if s.Event() != want {
				t.Fatalf("%s: record %d = %+v, want %+v", name, i, s.Event(), want)
			}
			if s.Path() != tr.Paths.Path(want.File) {
				t.Fatalf("%s: record %d path = %q", name, i, s.Path())
			}
			i++
		}
		if err := s.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if i != tr.Len() {
			t.Fatalf("%s: scanned %d of %d records", name, i, tr.Len())
		}
		if s.Paths().Len() != tr.Paths.Len() {
			t.Fatalf("%s: paths = %d, want %d", name, s.Paths().Len(), tr.Paths.Len())
		}
	}

	ts, err := NewTextScanner(&text)
	if err != nil {
		t.Fatal(err)
	}
	check("text", ts)

	bs, err := NewBinaryScanner(&bin)
	if err != nil {
		t.Fatal(err)
	}
	check("binary", bs)
}

func TestScannerHeaderValidation(t *testing.T) {
	if _, err := NewTextScanner(strings.NewReader("")); err == nil {
		t.Error("empty text input accepted")
	}
	if _, err := NewTextScanner(strings.NewReader("junk\n")); err == nil {
		t.Error("bad text header accepted")
	}
	if _, err := NewBinaryScanner(strings.NewReader("XXXX")); err != ErrBadMagic {
		t.Error("bad magic not detected")
	}
}

func TestScannerStopsOnCorruptRecord(t *testing.T) {
	in := textHeader + "\n0\t0\t0\t0\topen\t/ok\nbad line here\n"
	s, err := NewTextScanner(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Scan() {
		t.Fatal("first record not scanned")
	}
	if s.Scan() {
		t.Fatal("corrupt record scanned")
	}
	if s.Err() == nil {
		t.Error("corrupt record produced no error")
	}
	// Scanner stays stopped.
	if s.Scan() {
		t.Error("Scan after error returned true")
	}
}

func TestWriterRoundTrip(t *testing.T) {
	tr := randomTrace(t, 33, 600)
	for _, format := range []string{"text", "binary"} {
		var buf bytes.Buffer
		var w *Writer
		var err error
		if format == "text" {
			w, err = NewTextWriter(&buf)
		} else {
			w, err = NewBinaryWriter(&buf)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range tr.Events {
			if err := w.Write(ev, tr.Paths.Path(ev.File)); err != nil {
				t.Fatalf("%s: %v", format, err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}

		var got *Trace
		if format == "text" {
			got, err = ReadText(&buf)
		} else {
			got, err = ReadBinary(&buf)
		}
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if !tracesEqual(tr, got) {
			t.Errorf("%s: streamed write did not round-trip", format)
		}
	}
}

func TestWriterValidation(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewBinaryWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Event{Op: OpOpen}, ""); err == nil {
		t.Error("empty path accepted")
	}
	if err := w.Write(Event{Op: OpOpen, Time: 5 * time.Microsecond}, "/a"); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Event{Op: OpOpen, Time: time.Microsecond}, "/b"); err == nil {
		t.Error("time regression accepted by binary writer")
	}
	// A refused record leaves nothing behind: "/b" is still new, so its
	// path goes out with the next record that names it.
	if err := w.Write(Event{Op: OpOpen, Time: 6 * time.Microsecond}, "/b"); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Paths.Path(got.Events[1].File) != "/b" {
		t.Errorf("read back %d events, paths %d", got.Len(), got.Paths.Len())
	}
}

// Streaming a trace through Writer then Scanner must preserve it exactly,
// including interleaved new/old paths.
func TestStreamPipeline(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewBinaryWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	paths := []string{"/a", "/b", "/a", "/c", "/b", "/a"}
	for i, p := range paths {
		ev := Event{Op: OpOpen, Client: uint16(i)}
		if err := w.Write(ev, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	s, err := NewBinaryScanner(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for s.Scan() {
		got = append(got, s.Path())
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(paths) {
		t.Fatalf("scanned %d records, want %d", len(got), len(paths))
	}
	for i := range paths {
		if got[i] != paths[i] {
			t.Fatalf("record %d path = %q, want %q", i, got[i], paths[i])
		}
	}
}
