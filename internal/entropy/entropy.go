// Package entropy implements the paper's predictability metric: successor
// entropy (§4.5, Equation 2). The successor entropy of an access sequence
// is the access-weighted conditional entropy of each file's immediate
// successors — or, for symbol length k > 1, of the length-k successor
// sequences that follow each occurrence of the file (Figure 6). Files that
// appear only once are excluded: an online predictor cannot be expected to
// predict a symbol it has never seen, and counting such files would make a
// non-repeating workload look deceptively predictable.
package entropy

import (
	"fmt"
	"math"

	"aggcache/internal/trace"
)

// Result carries a successor-entropy computation with the bookkeeping the
// experiments report.
type Result struct {
	// Bits is H_S: 0 means perfectly predictable successors; higher is
	// less predictable.
	Bits float64
	// SymbolLength is k, the successor-sequence length.
	SymbolLength int
	// Files is how many distinct files qualified (appeared more than
	// once with a complete successor window).
	Files int
	// Occurrences is the total number of qualifying occurrences.
	Occurrences int
}

// SuccessorEntropy computes H_S over seq for successor symbols of length
// k >= 1. Probabilities are relative frequency counts conditioned on the
// current file; the outer average weights each qualifying file by its
// share of qualifying access events, per Equation 2.
//
// For each occurrence of file f at position p, the successor symbol is
// seq[p+1 .. p+k]. Occurrences too close to the end have no complete
// symbol and are skipped, exactly like an online tracker that never got
// to see the full follow-up.
func SuccessorEntropy(seq []trace.FileID, k int) (Result, error) {
	rs, err := Sweep(seq, []int{k})
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// Sweep computes SuccessorEntropy for each symbol length in ks, in order —
// the x-axis of Figures 7 and 8.
func Sweep(seq []trace.FileID, ks []int) ([]Result, error) {
	return ConditionalSweep(seq, 1, ks)
}

// ConditionalEntropy generalizes SuccessorEntropy to higher-order
// conditioning: the condition C is the last ctxLen files (ctxLen = 1 is
// Equation 2 exactly, and the result equals SuccessorEntropy's field for
// field), and the predicted symbol is the next symbolLen files. Comparing
// ctxLen 1 vs 2 quantifies how much predictability the context-modeling
// predictors of §5 (PPM and the compression-based schemes) can exploit
// beyond per-file successor lists — at the price of state that grows with
// the number of distinct contexts rather than the number of files.
func ConditionalEntropy(seq []trace.FileID, ctxLen, symbolLen int) (Result, error) {
	rs, err := ConditionalSweep(seq, ctxLen, []int{symbolLen})
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// ConditionalSweep computes ConditionalEntropy(seq, ctxLen, k) for each
// symbol length k in ks, in order. It is the one successor-entropy engine:
// SuccessorEntropy, Sweep and ConditionalEntropy all run on it.
//
// This is the hottest computation in the experiment suite, so it avoids
// the obvious per-(position, k) string keys. Length-j successor symbols
// are assigned dense integer ids by refining the length-(j-1) ids one
// step at a time — symbol(p, j) = (symbol(p, j-1), seq[p+j]) — so a
// whole sweep up to max(ks) costs O(len(seq)) integer map work per
// length instead of O(len(seq)·k) string hashing per length. Conditions
// get dense ids by the same refinement run backwards — ctx(p, 1) = seq[p]
// and ctx(p, j) = (ctx(p-1, j-1), seq[p]) — so at ctxLen 1 a condition's
// id is its FileID. Identical symbols (and contexts) get identical ids by
// construction, so the frequency distributions (and therefore the
// entropy) match the direct computation exactly.
func ConditionalSweep(seq []trace.FileID, ctxLen int, ks []int) ([]Result, error) {
	if ctxLen < 1 {
		return nil, fmt.Errorf("entropy: context length must be >= 1, got %d", ctxLen)
	}
	out := make([]Result, len(ks))
	maxK := 0
	want := make(map[int][]int, len(ks))
	for i, k := range ks {
		if k < 1 {
			return nil, fmt.Errorf("entropy: symbol length must be >= 1, got %d", k)
		}
		if k > maxK {
			maxK = k
		}
		want[k] = append(want[k], i)
	}
	if maxK == 0 {
		return out, nil
	}

	pair := make(map[uint64]uint32, len(seq))
	ev := newEvaluator(seq, ctxLen, pair)
	// syms[p] is the dense id of the length-j symbol starting after p.
	// It begins as the length-0 ids (all zero: every empty symbol is the
	// same symbol) and is refined in place one length per iteration.
	// Positions past the valid range keep stale ids but are never read:
	// the valid range only shrinks as j grows.
	syms := make([]uint32, len(seq))
	for j := 1; j <= maxK; j++ {
		numIDs := refine(syms, seq, j, pair)
		idxs := want[j]
		if len(idxs) == 0 {
			continue
		}
		r := ev.evaluate(syms, j, numIDs)
		for _, i := range idxs {
			out[i] = r
		}
	}
	return out, nil
}

// PerFile visits, in FileID order, every file of seq that has an
// immediate successor, with its number of distinct successors and the
// entropy of their distribution in bits: Equation 2's inner term at
// k = 1 over every occurrence that has a successor. Unlike Equation 2's
// average it keeps files with a single such occurrence (0 bits).
func PerFile(seq []trace.FileID, visit func(f trace.FileID, successors int, bits float64)) {
	ev := newEvaluator(seq, 1, nil)
	// At k = 1 the successor's FileID is already a dense symbol id.
	syms := make([]uint32, len(seq))
	for p := 1; p < len(seq); p++ {
		syms[p-1] = uint32(seq[p])
	}
	ev.each(syms, ev.conditions(), int32(len(seq)-1), 1, func(f, _, successors int, bits float64) {
		visit(trace.FileID(f), successors, bits)
	})
}

// refine replaces ids[s], for every s with s+off < len(seq), by the dense
// id of the pair (ids[s], seq[s+off]), numbering pairs in order of first
// appearance, and returns how many ids it used.
func refine(ids []uint32, seq []trace.FileID, off int, pair map[uint64]uint32) int {
	clear(pair)
	var next uint32
	for s := 0; s+off < len(seq); s++ {
		key := uint64(ids[s])<<32 | uint64(seq[s+off])
		id, ok := pair[key]
		if !ok {
			id = next
			next++
			pair[key] = id
		}
		ids[s] = id
	}
	return int(next)
}

// evaluator computes the access-weighted conditional entropy of a
// symbol-id assignment. It is built once per sweep: the positions of each
// condition are gathered a single time, and the symbol counters use a
// sparse-reset dense array so evaluating one length allocates nothing
// beyond one-time growth.
type evaluator struct {
	seq []trace.FileID
	// condStart/condPos is a CSR-style layout of each condition's
	// positions in ascending order: condition c's positions are
	// condPos[condStart[c]:condStart[c+1]]. Condition ids are dense, so
	// slices beat maps here.
	condStart []int
	condPos   []int32
	// count is indexed by symbol id; touched records which ids a
	// condition incremented so they can be reset in O(occurrences).
	count   []int32
	touched []uint32
}

// newEvaluator groups seq's positions p >= ctxLen-1 by the id of the
// length-ctxLen context ending at p. pair is refine's scratch map; it is
// not read at ctxLen 1.
func newEvaluator(seq []trace.FileID, ctxLen int, pair map[uint64]uint32) *evaluator {
	// cond[s] is the id of the context starting at s: the FileID at
	// length 1, refined in place one length per iteration after that.
	cond := make([]uint32, len(seq))
	numConds := 0
	for s, f := range seq {
		cond[s] = uint32(f)
		numConds = max(numConds, int(f)+1)
	}
	for j := 2; j <= ctxLen; j++ {
		numConds = refine(cond, seq, j-1, pair)
	}
	first := ctxLen - 1 // the first position with a complete context
	condStart := make([]int, numConds+1)
	for p := first; p < len(seq); p++ {
		condStart[cond[p-first]+1]++
	}
	for i := 1; i < len(condStart); i++ {
		condStart[i] += condStart[i-1]
	}
	condPos := make([]int32, condStart[numConds])
	fill := make([]int, numConds)
	for p := first; p < len(seq); p++ {
		c := cond[p-first]
		condPos[condStart[c]+fill[c]] = int32(p)
		fill[c]++
	}
	return &evaluator{seq: seq, condStart: condStart, condPos: condPos}
}

// conditions returns the number of condition ids.
func (e *evaluator) conditions() int { return len(e.condStart) - 1 }

// evaluate computes the Equation-2 weighted entropy for symbol length k,
// where syms[p] identifies the symbol at position p and ids < numIDs.
func (e *evaluator) evaluate(syms []uint32, k, numIDs int) Result {
	res := Result{SymbolLength: k}
	limit := int32(len(e.seq) - k) // positions with a complete symbol

	// First pass: total qualifying occurrences over conditions with
	// occ > 1.
	var totalOcc int
	for c := 0; c < e.conditions(); c++ {
		if occ := len(e.positions(c, limit)); occ > 1 {
			totalOcc += occ
		}
	}
	if totalOcc == 0 {
		return res
	}
	ftot := float64(totalOcc)
	e.each(syms, numIDs, limit, 2, func(_, occ, _ int, hc float64) {
		res.Bits += float64(occ) / ftot * hc
		res.Files++
		res.Occurrences += occ
	})
	return res
}

// each visits every condition with at least minOcc positions below limit,
// in id order, with its position count, its number of distinct symbols
// and the entropy of their distribution, -sum p log2 p. Each condition's
// symbols are summed in first-occurrence order, so the floating-point
// summation order — and therefore the result — depends on nothing but the
// input.
func (e *evaluator) each(syms []uint32, numIDs int, limit int32, minOcc int, visit func(c, occ, distinct int, bits float64)) {
	if numIDs > len(e.count) {
		e.count = make([]int32, numIDs)
	}
	for c := 0; c < e.conditions(); c++ {
		pos := e.positions(c, limit)
		if len(pos) < minOcc {
			continue
		}
		e.touched = e.touched[:0]
		for _, p := range pos {
			id := syms[p]
			if e.count[id] == 0 {
				e.touched = append(e.touched, id)
			}
			e.count[id]++
		}
		var h float64
		occ := float64(len(pos))
		for _, id := range e.touched {
			p := float64(e.count[id]) / occ
			h -= p * math.Log2(p)
			e.count[id] = 0
		}
		visit(c, len(pos), len(e.touched), h)
	}
}

// positions returns condition c's positions that still have a complete
// symbol (strictly below limit). Positions are ascending, so the
// qualifying prefix is found by binary search.
func (e *evaluator) positions(c int, limit int32) []int32 {
	pos := e.condPos[e.condStart[c]:e.condStart[c+1]]
	lo, hi := 0, len(pos)
	for lo < hi {
		mid := (lo + hi) / 2
		if pos[mid] < limit {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return pos[:lo]
}
