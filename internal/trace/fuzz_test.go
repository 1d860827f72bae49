package trace

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// Fuzz targets for the trace codecs: arbitrary bytes must parse or error,
// never panic, and a successful parse must re-encode to bytes that decode
// to an equal trace.

// checkReencodes writes got with every encoder of the named formats and
// reads each result back.
func checkReencodes(t *testing.T, got *Trace, formats ...string) {
	t.Helper()
	for _, enc := range encoders {
		if !slices.Contains(formats, enc.Format) {
			continue
		}
		var out bytes.Buffer
		if err := enc.Write(&out, got); err != nil {
			t.Fatalf("%s: re-encode of valid trace failed: %v", enc.Name, err)
		}
		back, err := Read(&out)
		if err != nil {
			t.Fatalf("%s: re-encoding does not decode: %v", enc.Name, err)
		}
		if !tracesEqual(got, back) {
			t.Fatalf("%s: re-encoding decodes to a different trace", enc.Name)
		}
	}
}

func FuzzReadBinary(f *testing.F) {
	tr := randomTraceForBench(64)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("AGTR"))
	f.Add([]byte{})
	f.Add(repeatedPathTrace)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadBinary(bytes.NewReader(data))
		if err == nil {
			// A binary trace's ids and times are in order, so the text
			// format holds it too.
			checkReencodes(t, got, "binary", "text")
		}
	})
}

func FuzzReadText(f *testing.F) {
	tr := randomTraceForBench(32)
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("#aggtrace v1\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		got, err := ReadText(strings.NewReader(data))
		if err == nil {
			checkReencodes(t, got, "text")
		}
	})
}

func FuzzReadDFSTrace(f *testing.F) {
	f.Add("1.0 host 1 2 open /x\n")
	f.Add("garbage\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		_, _, _ = ReadDFSTrace(strings.NewReader(data))
	})
}
