package entropy

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"aggcache/internal/trace"
)

func TestSuccessorEntropyValidation(t *testing.T) {
	if _, err := SuccessorEntropy(nil, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := SuccessorEntropy(nil, -2); err == nil {
		t.Error("k=-2 accepted")
	}
}

func TestDeterministicSequenceHasZeroEntropy(t *testing.T) {
	// A B C A B C ... : every file has exactly one successor.
	var seq []trace.FileID
	for i := 0; i < 60; i++ {
		seq = append(seq, trace.FileID(i%3))
	}
	for _, k := range []int{1, 2, 5} {
		r, err := SuccessorEntropy(seq, k)
		if err != nil {
			t.Fatal(err)
		}
		if r.Bits != 0 {
			t.Errorf("k=%d: Bits = %v, want 0 for deterministic cycle", k, r.Bits)
		}
		if r.Files != 3 {
			t.Errorf("k=%d: Files = %d, want 3", k, r.Files)
		}
	}
}

func TestAlternatingSuccessorsGiveOneBit(t *testing.T) {
	// A's successor alternates uniformly between B and C:
	// A B A C A B A C ... -> H(A) = 1 bit. B and C always return to A
	// -> 0 bits. Weighted: A has half the qualifying occurrences.
	var seq []trace.FileID
	for i := 0; i < 100; i++ {
		seq = append(seq, 0) // A
		if i%2 == 0 {
			seq = append(seq, 1) // B
		} else {
			seq = append(seq, 2) // C
		}
	}
	r, err := SuccessorEntropy(seq, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Bits-0.5) > 0.02 {
		t.Errorf("Bits = %v, want ~0.5 (A contributes 1 bit at weight 1/2)", r.Bits)
	}
}

func TestSingleOccurrenceFilesExcluded(t *testing.T) {
	// Non-repeating sequence: no file qualifies, entropy reported as 0
	// with zero files — NOT falsely "perfectly predictable" with files
	// counted.
	seq := []trace.FileID{1, 2, 3, 4, 5, 6}
	r, err := SuccessorEntropy(seq, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Files != 0 || r.Occurrences != 0 {
		t.Errorf("non-repeating sequence: Files=%d Occurrences=%d, want 0,0", r.Files, r.Occurrences)
	}
}

func TestSingletonSuccessorsRaisePredecessorEntropy(t *testing.T) {
	// A is followed by a fresh unique file every time: A's conditional
	// entropy is log2(occurrences of A); the singletons themselves are
	// excluded from the outer average.
	var seq []trace.FileID
	next := trace.FileID(100)
	for i := 0; i < 16; i++ {
		seq = append(seq, 0, next)
		next++
	}
	r, err := SuccessorEntropy(seq, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Only file 0 qualifies; its 16 successors are all distinct ->
	// H = log2(16) = 4 bits... but the final occurrence of 0 has a
	// complete window too, so occ = 16.
	if r.Files != 1 {
		t.Fatalf("Files = %d, want 1", r.Files)
	}
	if math.Abs(r.Bits-4.0) > 1e-9 {
		t.Errorf("Bits = %v, want 4.0", r.Bits)
	}
}

func TestEntropyMonotoneInSymbolLength(t *testing.T) {
	// Empirical joint entropy over a fixed occurrence set is monotone in
	// k; window truncation at the tail perturbs it only slightly. Use a
	// noisy but repetitive sequence and allow a tiny tolerance.
	rng := rand.New(rand.NewSource(3))
	var seq []trace.FileID
	for i := 0; i < 5000; i++ {
		if rng.Float64() < 0.8 {
			seq = append(seq, trace.FileID(i%7))
		} else {
			seq = append(seq, trace.FileID(rng.Intn(30)))
		}
	}
	ks := []int{1, 2, 4, 8, 12, 16, 20}
	results, err := Sweep(seq, ks)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(results); i++ {
		if results[i].Bits < results[i-1].Bits-0.05 {
			t.Errorf("entropy dropped from %.3f (k=%d) to %.3f (k=%d)",
				results[i-1].Bits, ks[i-1], results[i].Bits, ks[i])
		}
	}
}

func TestEntropyBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	seq := make([]trace.FileID, 3000)
	const universe = 64
	for i := range seq {
		seq[i] = trace.FileID(rng.Intn(universe))
	}
	r, err := SuccessorEntropy(seq, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bits < 0 {
		t.Errorf("Bits = %v < 0", r.Bits)
	}
	if max := math.Log2(universe); r.Bits > max {
		t.Errorf("Bits = %v > log2(universe) = %v", r.Bits, max)
	}
	// A uniformly random sequence must look nearly maximally
	// unpredictable.
	if r.Bits < 0.8*math.Log2(universe) {
		t.Errorf("Bits = %v, want near log2(%d)=%v for random sequence",
			r.Bits, universe, math.Log2(universe))
	}
}

func TestPredictableBeatsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var predictable, random []trace.FileID
	for i := 0; i < 4000; i++ {
		predictable = append(predictable, trace.FileID(i%10))
		random = append(random, trace.FileID(rng.Intn(10)))
	}
	rp, err := SuccessorEntropy(predictable, 1)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := SuccessorEntropy(random, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Bits >= rr.Bits {
		t.Errorf("predictable %.3f >= random %.3f", rp.Bits, rr.Bits)
	}
}

func TestShortSequences(t *testing.T) {
	for _, seq := range [][]trace.FileID{nil, {1}, {1, 2}} {
		r, err := SuccessorEntropy(seq, 1)
		if err != nil {
			t.Fatal(err)
		}
		if r.Bits != 0 {
			t.Errorf("seq %v: Bits = %v, want 0", seq, r.Bits)
		}
	}
	// k longer than the sequence: no complete windows.
	r, err := SuccessorEntropy([]trace.FileID{1, 2, 1, 2}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r.Occurrences != 0 {
		t.Errorf("Occurrences = %d, want 0 when k exceeds sequence", r.Occurrences)
	}
}

func TestConditionalEntropyValidation(t *testing.T) {
	if _, err := ConditionalEntropy(nil, 0, 1); err == nil {
		t.Error("ctxLen 0 accepted")
	}
	if _, err := ConditionalEntropy(nil, 1, 0); err == nil {
		t.Error("symbolLen 0 accepted")
	}
}

func TestConditionalEntropyOrder1MatchesSuccessorEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	seq := make([]trace.FileID, 3000)
	for i := range seq {
		if rng.Float64() < 0.7 {
			seq[i] = trace.FileID(i % 9)
		} else {
			seq[i] = trace.FileID(rng.Intn(40))
		}
	}
	for k := 1; k <= 5; k++ {
		a, err := SuccessorEntropy(seq, k)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ConditionalEntropy(seq, 1, k)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("k=%d: order-1 conditional %+v != successor entropy %+v", k, b, a)
		}
	}
}

func TestLongerContextMorePredictable(t *testing.T) {
	// The Figure-6 scenario: C appears in two patterns, X C D and Y C A.
	// Order-1 cannot separate them; order-2 can.
	var seq []trace.FileID
	for i := 0; i < 200; i++ {
		seq = append(seq, 10, 3, 4, 99)
		seq = append(seq, 20, 3, 5, 99)
	}
	o1, err := ConditionalEntropy(seq, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := ConditionalEntropy(seq, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("conditional entropy: order1=%.3f order2=%.3f", o1.Bits, o2.Bits)
	if o2.Bits >= o1.Bits {
		t.Errorf("order-2 entropy %.3f not below order-1 %.3f", o2.Bits, o1.Bits)
	}
	if o2.Bits > 1e-9 {
		t.Errorf("order-2 entropy %.3f, want 0 (fully determined)", o2.Bits)
	}
}

// direct is Equation 2 generalized to ctxLen, computed the obvious way:
// string-keyed contexts and symbols. The engine must match it.
func direct(seq []trace.FileID, ctxLen, k int) Result {
	key := func(ids []trace.FileID) string { return fmt.Sprint(ids) }
	type dist struct {
		occ     int
		symbols map[string]int
	}
	dists := make(map[string]*dist)
	for p := ctxLen - 1; p+k < len(seq); p++ {
		c := key(seq[p-ctxLen+1 : p+1])
		d, ok := dists[c]
		if !ok {
			d = &dist{symbols: make(map[string]int)}
			dists[c] = d
		}
		d.occ++
		d.symbols[key(seq[p+1:p+1+k])]++
	}
	res := Result{SymbolLength: k}
	var total int
	for _, d := range dists {
		if d.occ > 1 {
			total += d.occ
		}
	}
	for _, d := range dists {
		if d.occ <= 1 {
			continue
		}
		var h float64
		for _, n := range d.symbols {
			p := float64(n) / float64(d.occ)
			h -= p * math.Log2(p)
		}
		res.Bits += float64(d.occ) / float64(total) * h
		res.Files++
		res.Occurrences += d.occ
	}
	return res
}

func TestConditionalSweepMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	seq := make([]trace.FileID, 2000)
	for i := range seq {
		if rng.Float64() < 0.6 {
			seq[i] = trace.FileID(i % 13)
		} else {
			seq[i] = trace.FileID(rng.Intn(50))
		}
	}
	ks := []int{1, 2, 3, 4, 5}
	for ctxLen := 1; ctxLen <= 3; ctxLen++ {
		rs, err := ConditionalSweep(seq, ctxLen, ks)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range ks {
			want := direct(seq, ctxLen, k)
			got := rs[i]
			if got.Files != want.Files || got.Occurrences != want.Occurrences || got.SymbolLength != k ||
				math.Abs(got.Bits-want.Bits) > 1e-9 {
				t.Errorf("ctx %d k %d: got %+v, want %+v", ctxLen, k, got, want)
			}
		}
	}
	// Contexts longer than the sequence leave nothing to condition on.
	r, err := ConditionalEntropy([]trace.FileID{1, 2, 1}, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r != (Result{SymbolLength: 1}) {
		t.Errorf("context longer than the sequence: %+v", r)
	}
}

func TestPerFile(t *testing.T) {
	// 0 is followed by 1, 2, 1, 2 and 2 by 0, 4: one bit over two
	// successors each. 1 always returns to 0. 4 is seen once: one
	// successor, 0 bits. 3 is seen once, at the end: no successor.
	seq := []trace.FileID{0, 1, 0, 2, 0, 1, 0, 2, 4, 3}
	type stat struct {
		successors int
		bits       float64
	}
	got := make(map[trace.FileID]stat)
	var order []trace.FileID
	PerFile(seq, func(f trace.FileID, successors int, bits float64) {
		got[f] = stat{successors, bits}
		order = append(order, f)
	})
	want := map[trace.FileID]stat{0: {2, 1}, 1: {1, 0}, 2: {2, 1}, 4: {1, 0}}
	if !slices.Equal(order, []trace.FileID{0, 1, 2, 4}) {
		t.Errorf("visit order %v, want [0 1 2 4]", order)
	}
	for f, w := range want {
		if got[f] != w {
			t.Errorf("file %d: %+v, want %+v", f, got[f], w)
		}
	}
}
