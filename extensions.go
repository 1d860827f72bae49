package aggcache

import (
	"io"
	"math"

	"aggcache/internal/hoard"
	"aggcache/internal/placement"
	"aggcache/internal/prefetch"
	"aggcache/internal/successor"
	"aggcache/internal/trace"
	"aggcache/internal/viz"
	"aggcache/internal/workload"
)

// This file exposes the extension modules: the explicit-prefetching
// baselines of §5, the placement and hoarding applications of §2.1/§6,
// workload visualization, and trace import/merge tooling.

// Explicit prefetching baselines.
type (
	// Predictor guesses upcoming files from the access history.
	Predictor = prefetch.Predictor
	// PrefetchingCache drives a Predictor with explicit per-file
	// prefetch requests, the way classic prefetchers did.
	PrefetchingCache = prefetch.PrefetchingCache
	// PrefetchStats counts a prefetching cache's activity.
	PrefetchStats = prefetch.Stats
)

// NewLastSuccessorPredictor returns the last-successor model (Lei &
// Duchamp 1997).
func NewLastSuccessorPredictor() *prefetch.SuccessorChain { return prefetch.NewLastSuccessor() }

// NewFirstSuccessorPredictor returns the first-successor model.
func NewFirstSuccessorPredictor() *prefetch.SuccessorChain { return prefetch.NewFirstSuccessor() }

// NewProbabilityGraphPredictor returns Griffioen & Appleton's
// probability-graph predictor.
func NewProbabilityGraphPredictor(lookahead int, minChance float64) (*prefetch.ProbabilityGraph, error) {
	return prefetch.NewProbabilityGraph(lookahead, minChance)
}

// NewPPMPredictor returns a prediction-by-partial-match context model with
// contexts of length 1..maxOrder (the Kroeger & Long line of predictors).
func NewPPMPredictor(maxOrder int) (*prefetch.PPM, error) {
	return prefetch.NewPPM(maxOrder)
}

// NewPrefetchingCache builds an LRU cache that prefetches up to depth
// predictions after every access.
func NewPrefetchingCache(capacity, depth int, p Predictor) (*PrefetchingCache, error) {
	return prefetch.NewPrefetchingCache(capacity, depth, p)
}

// Data placement (§2.1).
type (
	// Layout assigns files to slots on a one-dimensional device.
	Layout = placement.Layout
	// SeekCostResult is the outcome of replaying a trace on a layout.
	SeekCostResult = placement.Cost
)

// SequentialLayout lays files out in first-access order.
func SequentialLayout(seq []FileID) *Layout { return placement.Sequential(seq) }

// OrganPipeLayout lays files out by frequency around the device centre.
func OrganPipeLayout(seq []FileID) *Layout { return placement.OrganPipe(seq) }

// GroupedLayout collocates covering-set groups.
func GroupedLayout(cover *Cover, seq []FileID) *Layout { return placement.Grouped(cover, seq) }

// SeekCost replays seq against a layout under the |pos(a)-pos(b)| seek
// model.
func SeekCost(l *Layout, seq []FileID) (SeekCostResult, error) {
	return placement.SeekCost(l, seq)
}

// Mobile hoarding (§6).
type (
	// Hoard is a budget-bounded set of files for disconnected use.
	Hoard = hoard.Hoard
	// HoardPolicy selects the hoard construction strategy.
	HoardPolicy = hoard.Policy
	// HoardResult is a disconnected miss-rate replay.
	HoardResult = hoard.Result
	// HoardRunResult is a session-completion replay.
	HoardRunResult = hoard.RunResult
)

// Hoard selection policies.
const (
	HoardFrequency    = hoard.PolicyFrequency
	HoardGroupClosure = hoard.PolicyGroupClosure
)

// BuildHoard selects up to budget files from a tracker's metadata.
func BuildHoard(t *Tracker, policy HoardPolicy, budget, groupSize int) (*Hoard, error) {
	return hoard.Build(t, policy, budget, groupSize)
}

// EvaluateHoard replays a future sequence, counting disconnected misses.
func EvaluateHoard(h *Hoard, seq []FileID) HoardResult { return hoard.Evaluate(h, seq) }

// EvaluateHoardRuns replays whole sessions; a session fails on any miss.
func EvaluateHoardRuns(h *Hoard, runs [][]FileID) HoardRunResult {
	return hoard.EvaluateRuns(h, runs)
}

// Workload visualization.
type (
	// FileProfileEntry is one file's predictability summary.
	FileProfileEntry = viz.FileEntry
	// EntropyWindow is one time slice of workload predictability.
	EntropyWindow = viz.Window
)

// ProfileFiles summarizes the predictability of the topN most accessed
// files.
func ProfileFiles(t *Trace, topN int) []FileProfileEntry { return viz.Profile(t, topN) }

// WriteFileReport renders a per-file profile as aligned text.
func WriteFileReport(w io.Writer, entries []FileProfileEntry) error {
	return viz.WriteReport(w, entries)
}

// WriteFileBarsSVG renders a per-file profile as an SVG bar chart.
func WriteFileBarsSVG(w io.Writer, entries []FileProfileEntry) error {
	return viz.WriteBarsSVG(w, entries)
}

// EntropyWindows computes successor entropy over consecutive windows.
func EntropyWindows(ids []FileID, windowLen int) ([]EntropyWindow, error) {
	return viz.Windows(ids, windowLen)
}

// WriteEntropyTimelineSVG renders per-window entropy as an SVG sparkline.
func WriteEntropyTimelineSVG(w io.Writer, windows []EntropyWindow) error {
	return viz.WriteTimelineSVG(w, windows)
}

// EvaluateSuccessorPolicyEvents replays open events, attributing each
// transition to its issuing client when perClient is true (the §2.2
// modeling choice); lists stay shared.
func EvaluateSuccessorPolicyEvents(events []Event, policy SuccessorPolicy, capacity int, perClient bool) (SuccessorEval, error) {
	return successor.EvaluateReplacementEvents(events, policy, capacity, perClient)
}

// Metadata persistence: the paper's non-volatile relationship state.

// SaveTracker persists a tracker's metadata snapshot.
func SaveTracker(t *Tracker, w io.Writer) error { return t.Save(w) }

// LoadTracker restores a tracker from a snapshot written by SaveTracker.
func LoadTracker(r io.Reader) (*Tracker, error) {
	return successor.LoadTracker(r, math.MaxInt)
}

// WebWorkloadConfig parameterizes the web-proxy workload generator (the
// related-work domain of Hummingbird, §5).
type WebWorkloadConfig = workload.WebConfig

// GenerateWebWorkload synthesizes a web-proxy style trace: pages with
// embedded objects, hyperlink-following sessions, shared site assets.
func GenerateWebWorkload(cfg WebWorkloadConfig) (*Trace, error) {
	return workload.GenerateWeb(cfg)
}

// Trace tooling.

// DFSImportInfo reports what a DFSTrace import consumed.
type DFSImportInfo = trace.DFSImport

// ReadDFSTrace parses a DFSTrace-style ASCII dump (see the trace package
// documentation for the accepted layout and syscall mapping).
func ReadDFSTrace(r io.Reader) (*Trace, DFSImportInfo, error) { return trace.ReadDFSTrace(r) }

// MergeTraces combines traces into one time-ordered trace.
func MergeTraces(traces ...*Trace) (*Trace, error) { return trace.Merge(traces...) }

// SplitTraceByClient partitions a trace into per-client traces.
func SplitTraceByClient(t *Trace) map[uint16]*Trace { return trace.SplitByClient(t) }
