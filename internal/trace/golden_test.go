package trace_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"aggcache/internal/trace"
	"aggcache/internal/workload"
)

// codecGolden pins the bytes each format puts on disk: the FNV-64a digest
// of every encoder's output, recorded when each format still had two
// encoders. The whole-trace writer and the streaming Writer of a format
// must both produce exactly these bytes.
var codecGolden = map[string]uint64{
	"random/1/text":               0x971323510b3e66e0,
	"random/1/binary":             0xb80c6eec68dde588,
	"random/7/text":               0x48695e21c850e827,
	"random/7/binary":             0x7f42e32945d61d6f,
	"random/21/text":              0x3f69c3f813a2bbcc,
	"random/21/binary":            0xc78859d61c8f7129,
	"standard/workstation/text":   0xac443867c145d264,
	"standard/workstation/binary": 0xf5ec5ee76837cf3f,
	"standard/users/text":         0xd2d968266e6204dc,
	"standard/users/binary":       0x308fa17e04b0feb8,
	"standard/write/text":         0xdb8b5e6104148c26,
	"standard/write/binary":       0x60ef96ed758d447f,
	"standard/server/text":        0x7f8c2e5136c6c9b8,
	"standard/server/binary":      0x24186d14ed40adea,
}

func TestCodecGolden(t *testing.T) {
	type source struct {
		name string
		tr   *trace.Trace
	}
	var sources []source
	for _, seed := range []int64{1, 7, 21} {
		sources = append(sources, source{fmt.Sprintf("random/%d", seed), trace.RandomTrace(t, seed, 1000)})
	}
	for _, p := range workload.Profiles() {
		tr, err := workload.Standard(p, 1, 2000)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, source{"standard/" + string(p), tr})
	}
	for _, src := range sources {
		for _, enc := range trace.Encoders {
			var buf bytes.Buffer
			if err := enc.Write(&buf, src.tr); err != nil {
				t.Fatalf("%s %s: %v", src.name, enc.Name, err)
			}
			h := fnv.New64a()
			h.Write(buf.Bytes())
			key := src.name + "/" + enc.Format
			if got, want := h.Sum64(), codecGolden[key]; got != want {
				t.Errorf("%s %s: digest %#016x, want %#016x (%d bytes)", src.name, enc.Name, got, want, buf.Len())
			}
		}
	}
}
