package trace

import (
	"bytes"
	"io"
	"testing"
)

func benchTrace(b *testing.B, n int) *Trace {
	b.Helper()
	return randomTraceForBench(n)
}

func randomTraceForBench(n int) *Trace {
	tr := NewTrace()
	paths := make([]string, 64)
	for i := range paths {
		paths[i] = "/bench/path/file" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
	}
	x := uint32(9)
	for i := 0; i < n; i++ {
		x = x*1664525 + 1013904223
		tr.Append(Event{Op: OpOpen, Client: uint16(x >> 28)}, paths[(x>>16)%64])
	}
	return tr
}

func BenchmarkWriteBinary(b *testing.B) {
	tr := benchTrace(b, 1<<15)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteBinary(&buf, tr); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

func BenchmarkReadBinary(b *testing.B) {
	tr := benchTrace(b, 1<<15)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBinary(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteText(b *testing.B) {
	tr := benchTrace(b, 1<<15)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteText(&buf, tr); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

func BenchmarkReadText(b *testing.B) {
	tr := benchTrace(b, 1<<15)
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadText(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFormats pairs each format's whole-trace writer with its streaming
// scanner and writer constructors.
var benchFormats = []struct {
	name      string
	write     func(io.Writer, *Trace) error
	newScan   func(io.Reader) (*Scanner, error)
	newWriter func(io.Writer) (*Writer, error)
}{
	{"text", WriteText, NewTextScanner, NewTextWriter},
	{"binary", WriteBinary, NewBinaryScanner, NewBinaryWriter},
}

func BenchmarkScanner(b *testing.B) {
	tr := benchTrace(b, 1<<15)
	for _, f := range benchFormats {
		b.Run(f.name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := f.write(&buf, tr); err != nil {
				b.Fatal(err)
			}
			data := buf.Bytes()
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := f.newScan(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				for s.Scan() {
				}
				if err := s.Err(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWriter(b *testing.B) {
	tr := benchTrace(b, 1<<15)
	for _, f := range benchFormats {
		b.Run(f.name, func(b *testing.B) {
			write := streamWrite(f.newWriter)
			var buf bytes.Buffer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := write(&buf, tr); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(buf.Len()))
		})
	}
}
