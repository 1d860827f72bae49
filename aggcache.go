// Package aggcache is a Go implementation of group-based management of
// distributed file caches, after Amer, Long and Burns (ICDCS 2002).
//
// The core idea: observe only the sequence of file-open events, keep for
// every file a small LRU-managed list of its immediate successors, and on
// a cache miss fetch a best-effort group — the demanded file plus the
// chain of most-likely transitive successors — instead of a single file.
// The demanded file enters at the head of the cache's LRU list; the
// speculative members are appended at the tail, so wrong guesses are the
// first victims. This "aggregating cache" delivers the benefit of
// prefetching without its timing hazards, and it keeps a server-side cache
// useful even when an intervening client cache filters away all ordinary
// locality.
//
// The package is a facade over the implementation packages:
//
//   - New / Cache: the aggregating cache itself (client- or server-side).
//   - Trace, ReadTraceText, ReadTraceBinary, ...: the file-access trace
//     substrate, with text and binary codecs.
//   - GenerateWorkload / StandardWorkload: synthetic workloads calibrated
//     to the four CMU DFSTrace systems the paper evaluates.
//   - NewTracker / EvaluateSuccessorPolicy: per-file successor metadata
//     and the replacement-policy study.
//   - SuccessorEntropy: the paper's predictability metric.
//   - SimulateClient / SimulateServer / FilterLRU: trace-driven cache
//     simulations for every figure of the evaluation.
//   - NewStore / NewServer / Dial: a TCP file server and client cache
//     manager realizing the paper's architecture over a real network.
//
// Use the quickstart example as a template:
//
//	tr, _ := aggcache.StandardWorkload(aggcache.ProfileServer, 1, 50000)
//	c, _ := aggcache.New(aggcache.Config{Capacity: 300, GroupSize: 5})
//	for _, id := range tr.OpenIDs() {
//		c.Access(id)
//	}
//	fmt.Println(c.Stats().DemandFetches())
package aggcache

import (
	"io"

	"aggcache/internal/cache"
	"aggcache/internal/core"
	"aggcache/internal/entropy"
	"aggcache/internal/fsnet"
	"aggcache/internal/group"
	"aggcache/internal/simulate"
	"aggcache/internal/successor"
	"aggcache/internal/trace"
	"aggcache/internal/workload"
)

// Aggregating cache (the paper's contribution).
type (
	// Cache is the aggregating cache of §3.
	Cache = core.AggregatingCache
	// Config parameterizes a Cache.
	Config = core.Config
	// CacheStats is the aggregating cache's accounting.
	CacheStats = core.Stats
	// Placement selects where speculative group members enter the LRU
	// list.
	Placement = core.Placement
)

// Group-member placements.
const (
	// PlacementTail appends members at the LRU tail (the paper's
	// design).
	PlacementTail = core.PlacementTail
	// PlacementHead inserts members at the head (ablation variant).
	PlacementHead = core.PlacementHead
)

// New builds an aggregating cache.
func New(cfg Config) (*Cache, error) { return core.New(cfg) }

// Group construction.
type (
	// GroupBuilder assembles retrieval groups from successor metadata.
	GroupBuilder = group.Builder
	// GroupStrategy selects chaining vs breadth-first construction.
	GroupStrategy = group.Strategy
	// Cover is an overlapping covering-set grouping (§2.1).
	Cover = group.Cover
)

// Group construction strategies.
const (
	// StrategyChain follows most-likely transitive successors (paper).
	StrategyChain = group.StrategyChain
	// StrategyBreadth takes ranked successors breadth-first (ablation).
	StrategyBreadth = group.StrategyBreadth
)

// NewGroupBuilder returns a builder over t's metadata.
func NewGroupBuilder(t *Tracker, size int, strategy GroupStrategy) (*GroupBuilder, error) {
	return group.NewBuilder(t, size, strategy)
}

// BuildCover computes an overlapping covering-set grouping of the files.
func BuildCover(t *Tracker, b *GroupBuilder, files []FileID) *Cover {
	return group.BuildCover(t, b, files)
}

// Traces.
type (
	// Trace is an in-memory file-access trace.
	Trace = trace.Trace
	// Event is one trace record.
	Event = trace.Event
	// FileID is a dense interned file identity.
	FileID = trace.FileID
	// Op is a trace operation kind.
	Op = trace.Op
	// TraceStats summarizes a trace.
	TraceStats = trace.Stats
	// Interner maps paths to FileIDs.
	Interner = trace.Interner
)

// Trace operations.
const (
	OpOpen   = trace.OpOpen
	OpClose  = trace.OpClose
	OpRead   = trace.OpRead
	OpWrite  = trace.OpWrite
	OpCreate = trace.OpCreate
	OpUnlink = trace.OpUnlink
	OpStat   = trace.OpStat
)

// NewTrace returns an empty trace.
func NewTrace() *Trace { return trace.NewTrace() }

// ReadTraceText decodes the line-oriented trace format.
func ReadTraceText(r io.Reader) (*Trace, error) { return trace.ReadText(r) }

// WriteTraceText encodes a trace in the line-oriented format.
func WriteTraceText(w io.Writer, t *Trace) error { return trace.WriteText(w, t) }

// ReadTraceBinary decodes the compact binary trace format.
func ReadTraceBinary(r io.Reader) (*Trace, error) { return trace.ReadBinary(r) }

// WriteTraceBinary encodes a trace in the compact binary format.
func WriteTraceBinary(w io.Writer, t *Trace) error { return trace.WriteBinary(w, t) }

// SummarizeTrace computes summary statistics over a trace.
func SummarizeTrace(t *Trace) TraceStats { return trace.Summarize(t) }

// Workloads.
type (
	// WorkloadProfile names one of the four calibrated workloads.
	WorkloadProfile = workload.Profile
	// WorkloadConfig parameterizes synthetic trace generation.
	WorkloadConfig = workload.Config
)

// The four workloads of the paper's evaluation.
const (
	ProfileWorkstation = workload.ProfileWorkstation
	ProfileUsers       = workload.ProfileUsers
	ProfileWrite       = workload.ProfileWrite
	ProfileServer      = workload.ProfileServer
)

// WorkloadProfiles lists the standard profiles.
func WorkloadProfiles() []WorkloadProfile { return workload.Profiles() }

// GenerateWorkload synthesizes a trace from an explicit configuration.
func GenerateWorkload(cfg WorkloadConfig) (*Trace, error) { return workload.Generate(cfg) }

// StandardWorkload synthesizes the calibrated trace for a profile — the
// library's stand-in for loading the corresponding CMU trace.
func StandardWorkload(p WorkloadProfile, seed int64, opens int) (*Trace, error) {
	return workload.Standard(p, seed, opens)
}

// Successor metadata.
type (
	// Tracker maintains per-file successor lists over a sequence.
	Tracker = successor.Tracker
	// SuccessorPolicy selects list replacement (LRU, LFU, Oracle).
	SuccessorPolicy = successor.Policy
	// SuccessorEval is the Figure-5 replacement-policy measurement.
	SuccessorEval = successor.ReplacementEval
	// Graph is the inter-file relationship graph.
	Graph = successor.Graph
)

// Successor-list replacement policies.
const (
	SuccessorLRU = successor.PolicyLRU
	SuccessorLFU = successor.PolicyLFU
	// SuccessorDecay ranks successors by exponentially decayed
	// frequency, the recency/frequency hybrid of the paper's §6.
	SuccessorDecay  = successor.PolicyDecay
	SuccessorOracle = successor.PolicyOracle
)

// NewTracker builds a successor tracker with the given list policy and
// capacity.
func NewTracker(policy SuccessorPolicy, capacity int) (*Tracker, error) {
	return successor.NewTracker(policy, capacity)
}

// NewDecayTracker builds a tracker whose lists use decayed frequency with
// an explicit decay factor in (0, 1].
func NewDecayTracker(capacity int, lambda float64) (*Tracker, error) {
	return successor.NewDecayTracker(capacity, lambda)
}

// EvaluateSuccessorPolicy measures how often a bounded successor list
// fails to retain the actual next file (Figure 5).
func EvaluateSuccessorPolicy(seq []FileID, policy SuccessorPolicy, capacity int) (SuccessorEval, error) {
	return successor.EvaluateReplacement(seq, policy, capacity)
}

// BuildGraph snapshots a tracker's metadata as a relationship graph.
func BuildGraph(t *Tracker) *Graph { return successor.BuildGraph(t) }

// Entropy.

// EntropyResult carries a successor-entropy computation.
type EntropyResult = entropy.Result

// SuccessorEntropy computes the paper's predictability metric (Equation 2)
// for successor symbols of length k.
func SuccessorEntropy(seq []FileID, k int) (EntropyResult, error) {
	return entropy.SuccessorEntropy(seq, k)
}

// EntropySweep computes SuccessorEntropy for each symbol length.
func EntropySweep(seq []FileID, ks []int) ([]EntropyResult, error) {
	return entropy.Sweep(seq, ks)
}

// ConditionalEntropy generalizes the metric to higher-order conditioning:
// the condition is the last ctxLen files (ctxLen 1 reproduces Equation 2).
func ConditionalEntropy(seq []FileID, ctxLen, symbolLen int) (EntropyResult, error) {
	return entropy.ConditionalEntropy(seq, ctxLen, symbolLen)
}

// Simulation.
type (
	// ClientSimResult is one Figure-3 cell.
	ClientSimResult = simulate.ClientResult
	// ServerSimConfig parameterizes a two-level Figure-4 run.
	ServerSimConfig = simulate.ServerConfig
	// ServerSimResult is one Figure-4 cell.
	ServerSimResult = simulate.ServerResult
	// ServerScheme selects the server cache policy.
	ServerScheme = simulate.Scheme
)

// Server cache schemes for SimulateServer.
const (
	ServerLRU         = simulate.SchemeLRU
	ServerLFU         = simulate.SchemeLFU
	ServerAggregating = simulate.SchemeAggregating
)

// SimulateClient runs an aggregating client cache over an open sequence.
func SimulateClient(ids []FileID, capacity, groupSize int) (ClientSimResult, error) {
	return simulate.RunClient(ids, capacity, groupSize)
}

// SimulateServer runs the two-level client-filter/server-cache scenario.
func SimulateServer(ids []FileID, cfg ServerSimConfig) (ServerSimResult, error) {
	return simulate.RunServer(ids, cfg)
}

// MultiServerSimResult is the outcome of a multi-client two-level run.
type MultiServerSimResult = simulate.MultiServerResult

// SimulateServerMulti runs the two-level scenario with one client cache
// per client id and per-client server metadata contexts (§2.2).
func SimulateServerMulti(events []Event, cfg ServerSimConfig) (MultiServerSimResult, error) {
	return simulate.RunServerMulti(events, cfg)
}

// FilterLRU returns the miss stream of an LRU cache over the sequence.
func FilterLRU(ids []FileID, capacity int) ([]FileID, error) {
	return simulate.FilterLRU(ids, capacity)
}

// Baseline caches.
type (
	// BaselineCache is the uniform interface over the online whole-file
	// cache simulators LRU, LFU and ARC. Belady's OPT, their offline
	// bound, needs the future reference string and is not one.
	BaselineCache = cache.Cache
	// BaselinePolicy names a baseline replacement policy.
	BaselinePolicy = cache.Policy
	// BaselineStats counts baseline cache activity.
	BaselineStats = cache.Stats
)

// Baseline replacement policies.
const (
	BaselineLRU = cache.PolicyLRU
	BaselineLFU = cache.PolicyLFU
	BaselineARC = cache.PolicyARC
)

// NewBaseline constructs a baseline cache simulator.
func NewBaseline(p BaselinePolicy, capacity int) (BaselineCache, error) {
	return cache.New(p, capacity)
}

// Networked deployment (the paper's Figure-2 architecture over TCP).
type (
	// Server is the remote file server with relationship metadata.
	Server = fsnet.Server
	// ServerConfig parameterizes a Server.
	ServerConfig = fsnet.ServerConfig
	// ServerStats snapshots server activity.
	ServerStats = fsnet.ServerStats
	// Client is the client-side cache manager.
	Client = fsnet.Client
	// ClientConfig parameterizes a Client.
	ClientConfig = fsnet.ClientConfig
	// ClientStats snapshots client activity.
	ClientStats = fsnet.ClientStats
	// Store is the server's backing file store.
	Store = fsnet.Store
	// Backoff shapes the client's redial/retry delay schedule.
	Backoff = fsnet.Backoff
)

// ErrNotFound is returned by Client.Open for missing files.
var ErrNotFound = fsnet.ErrNotFound

// ErrConnBroken marks a client connection poisoned by an I/O or protocol
// error; with a Dialer configured the client redials with exponential
// backoff, and cache hits keep being served in the meantime.
var ErrConnBroken = fsnet.ErrConnBroken

// ErrProtocolVersion marks a peer that speaks another protocol version:
// the connection is closed (the error also wraps ErrConnBroken) and the
// request is not retried.
var ErrProtocolVersion = fsnet.ErrProtocolVersion

// NewStore returns an empty file store.
func NewStore() *Store { return fsnet.NewStore() }

// NewServer builds a file server over a store.
func NewServer(store *Store, cfg ServerConfig) (*Server, error) {
	return fsnet.NewServer(store, cfg)
}

// Dial connects a client cache manager to a server.
func Dial(addr string, cfg ClientConfig) (*Client, error) { return fsnet.Dial(addr, cfg) }
