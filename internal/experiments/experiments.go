// Package experiments regenerates every figure of the paper's evaluation
// (§4) as a table of series: Figure 3 (client demand fetches), Figure 4
// (server hit rates behind client filters), Figure 5 (successor-list
// replacement policies), Figure 7 (successor entropy vs symbol length),
// Figure 8 (entropy under intervening-cache filtering), plus the headline
// §6 claims. Each experiment maps onto the modules listed in DESIGN.md's
// per-experiment index and is exposed through cmd/experiments and the
// root-level benchmarks.
package experiments

import (
	"fmt"
	"sort"

	"aggcache/internal/entropy"
	"aggcache/internal/simulate"
	"aggcache/internal/successor"
	"aggcache/internal/trace"
	"aggcache/internal/workload"
)

// Config scales an experiment run.
type Config struct {
	// Opens is the open-event count of each generated workload
	// (default 120000 — large enough for the shapes to be stable).
	Opens int
	// Seed drives workload generation (default 1).
	Seed int64
	// Parallelism bounds the worker goroutines RunAll fans experiments
	// out on, and is forwarded to the sweep engines inside each figure.
	// 0 means GOMAXPROCS; 1 reproduces the fully sequential run. Every
	// setting yields bit-identical tables: experiments share only the
	// memoized read-only workloads, each simulation stays
	// single-threaded, and results land in pre-sized slots by index.
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.Opens == 0 {
		c.Opens = 120000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Runner is the signature of an experiment.
type Runner func(Config) (*Table, error)

// titles maps experiment IDs (the paper's figure numbering) to their
// human-readable titles.
var titles = map[string]string{
	"3a":     "Fig 3(a): client demand fetches vs cache capacity (server workload)",
	"3b":     "Fig 3(b): client demand fetches vs cache capacity (write workload)",
	"4a":     "Fig 4(a): server hit rate vs client filter capacity (workstation workload)",
	"4b":     "Fig 4(b): server hit rate vs client filter capacity (users workload)",
	"4c":     "Fig 4(c): server hit rate vs client filter capacity (server workload)",
	"5a":     "Fig 5(a): P(miss future successor) vs successor list size (workstation workload)",
	"5b":     "Fig 5(b): P(miss future successor) vs successor list size (server workload)",
	"7":      "Fig 7: successor entropy vs successor sequence length (all workloads)",
	"8a":     "Fig 8(a): successor entropy vs sequence length under LRU filters (write workload)",
	"8b":     "Fig 8(b): successor entropy vs sequence length under LRU filters (users workload)",
	"claims": "\u00a76 headline claims: client fetch reduction and server hit-rate gains",

	// Extension studies beyond the paper's figures.
	"xprefetch":  "Extension: aggregating cache vs explicit prefetchers (\u00a75 baselines)",
	"xplacement": "Extension: group-aware data placement vs organ-pipe (\u00a72.1/\u00a76)",
	"xhoard":     "Extension: hoard selection for disconnected operation (\u00a76)",
	"xlatency":   "Extension: mean open latency through a client/server hierarchy",
	"xdecay":     "Extension: decayed-frequency successor lists (the \u00a76 recency/frequency hybrid)",
	"xweb":       "Extension: grouping a web proxy's fetches (\u00a75/Hummingbird domain)",
	"xoverlap":   "Extension: storage cost of overlapping groups vs group size (\u00a76)",
	"xcontext":   "Extension: per-client vs merged successor contexts on the users workload (\u00a72.2)",
	"xbakeoff":   "Extension: every replacement policy vs the aggregating cache, all workloads",
	"xprune":     "Extension: cutting weak links vs static group size (Fig 7's falling predictability)",
	"xhier":      "Extension: Fig 4 behind the paper's own client (server miss rate and loads per open)",
}

// registry maps experiment IDs to runners.
var registry = map[string]Runner{
	"3a":     func(c Config) (*Table, error) { return fig3(c, workload.ProfileServer) },
	"3b":     func(c Config) (*Table, error) { return fig3(c, workload.ProfileWrite) },
	"4a":     func(c Config) (*Table, error) { return fig4(c, workload.ProfileWorkstation) },
	"4b":     func(c Config) (*Table, error) { return fig4(c, workload.ProfileUsers) },
	"4c":     func(c Config) (*Table, error) { return fig4(c, workload.ProfileServer) },
	"5a":     func(c Config) (*Table, error) { return fig5(c, workload.ProfileWorkstation) },
	"5b":     func(c Config) (*Table, error) { return fig5(c, workload.ProfileServer) },
	"7":      fig7,
	"8a":     func(c Config) (*Table, error) { return fig8(c, workload.ProfileWrite) },
	"8b":     func(c Config) (*Table, error) { return fig8(c, workload.ProfileUsers) },
	"claims": claims,

	"xprefetch":  xprefetch,
	"xplacement": xplacement,
	"xhoard":     xhoard,
	"xlatency":   xlatency,
	"xdecay":     xdecay,
	"xweb":       xweb,
	"xoverlap":   xoverlap,
	"xcontext":   xcontext,
	"xbakeoff":   xbakeoff,
	"xprune":     xprune,
	"xhier":      xhier,
}

// IDs returns the known experiment IDs in stable order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Title returns the human title for an experiment ID.
func Title(id string) (string, bool) {
	t, ok := titles[id]
	return t, ok
}

// Run executes one experiment.
func Run(id string, cfg Config) (*Table, error) {
	run, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
	}
	return run(cfg.withDefaults())
}

// RunAll executes every experiment, returning tables in ID order.
// Experiments fan out across cfg.Parallelism workers (default
// GOMAXPROCS); workloads are memoized so each (profile, seed, opens)
// trace is generated once for the whole run. Tables are bit-identical
// to a sequential run at any parallelism.
func RunAll(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	ids := IDs()
	out := make([]*Table, len(ids))
	err := simulate.ForEach(len(ids), sweepOptions(cfg), func(i int) error {
		t, err := Run(ids[i], cfg)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", ids[i], err)
		}
		out[i] = t
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func openIDs(cfg Config, p workload.Profile) ([]trace.FileID, error) {
	_, ids, err := standardWorkload(cfg, p)
	return ids, err
}

// sweepOptions forwards the run's parallelism bound to the sweep engine.
func sweepOptions(cfg Config) simulate.Options {
	return simulate.Options{Parallelism: cfg.Parallelism}
}

// fig3 sweeps cache capacity x group size, reporting demand fetches.
func fig3(cfg Config, p workload.Profile) (*Table, error) {
	ids, err := openIDs(cfg, p)
	if err != nil {
		return nil, err
	}
	groups := []int{1, 2, 3, 5, 7, 10}
	capacities := []int{100, 200, 300, 400, 500, 600, 700, 800}
	grid, err := simulate.ClientSweep(ids, groups, capacities, sweepOptions(cfg))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "3" + panelSuffix(p, workload.ProfileServer, workload.ProfileWrite),
		XLabel:  "cache capacity (files)",
		Columns: []string{"capacity", "lru", "g2", "g3", "g5", "g7", "g10"},
	}
	t.Title, _ = Title(t.ID)
	for j, c := range capacities {
		row := make([]float64, 0, len(groups)+1)
		row = append(row, float64(c))
		for i := range groups {
			row = append(row, float64(grid[i][j].Fetches))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("workload=%s opens=%d seed=%d", p, cfg.Opens, cfg.Seed),
		"y = demand fetches (client requests to remote server), proportional to miss rate")
	return t, nil
}

// fig4 sweeps the intervening client cache capacity for three server cache
// schemes at a fixed server capacity of 300 files.
func fig4(cfg Config, p workload.Profile) (*Table, error) {
	ids, err := openIDs(cfg, p)
	if err != nil {
		return nil, err
	}
	const serverCap = 300
	schemes := []simulate.ServerConfig{
		{ServerCapacity: serverCap, Scheme: simulate.SchemeAggregating, GroupSize: 5},
		{ServerCapacity: serverCap, Scheme: simulate.SchemeLRU},
		{ServerCapacity: serverCap, Scheme: simulate.SchemeLFU},
	}
	filters := []int{50, 100, 150, 200, 250, 300, 350, 400, 450, 500}
	grid, err := simulate.ServerSweep(ids, schemes, filters, sweepOptions(cfg))
	if err != nil {
		return nil, err
	}
	id := "4" + panelSuffix3(p, workload.ProfileWorkstation, workload.ProfileUsers, workload.ProfileServer)
	t := &Table{
		ID:      id,
		XLabel:  "filter capacity (files), cache capacity = 300",
		Columns: []string{"filter", "g5", "lru", "lfu"},
	}
	t.Title, _ = Title(id)
	for j, f := range filters {
		row := []float64{float64(f)}
		for i := range schemes {
			row = append(row, 100*grid[i][j].HitRate)
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("workload=%s opens=%d seed=%d", p, cfg.Opens, cfg.Seed),
		"y = server cache hit rate (%); server metadata learned from the filtered miss stream (no client cooperation)")
	return t, nil
}

// fig5 sweeps the per-file successor list capacity for the three
// replacement policies.
func fig5(cfg Config, p workload.Profile) (*Table, error) {
	ids, err := openIDs(cfg, p)
	if err != nil {
		return nil, err
	}
	id := "5" + panelSuffix(p, workload.ProfileWorkstation, workload.ProfileServer)
	t := &Table{
		ID:      id,
		XLabel:  "number of successors",
		Columns: []string{"successors", "oracle", "lru", "lfu"},
	}
	t.Title, _ = Title(id)

	oracle, err := successor.EvaluateReplacement(ids, successor.PolicyOracle, 0)
	if err != nil {
		return nil, err
	}
	caps := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	lru, err := successor.EvaluateReplacementSweep(ids, successor.PolicyLRU, caps)
	if err != nil {
		return nil, err
	}
	lfu, err := successor.EvaluateReplacementSweep(ids, successor.PolicyLFU, caps)
	if err != nil {
		return nil, err
	}
	for i, c := range caps {
		t.Rows = append(t.Rows, []float64{float64(c), oracle.MissProbability(), lru[i], lfu[i]})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("workload=%s opens=%d seed=%d", p, cfg.Opens, cfg.Seed),
		"y = probability a future successor is absent from the per-file list (access-weighted)")
	return t, nil
}

// fig7 sweeps successor-sequence symbol length for all four workloads.
func fig7(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "7",
		XLabel:  "successor sequence length",
		Columns: []string{"length", "users", "write", "server", "workstation"},
	}
	t.Title, _ = Title("7")
	order := []workload.Profile{workload.ProfileUsers, workload.ProfileWrite, workload.ProfileServer, workload.ProfileWorkstation}
	ks := seqLengths()
	series := make([][]entropy.Result, len(order))
	for i, p := range order {
		ids, err := openIDs(cfg, p)
		if err != nil {
			return nil, err
		}
		rs, err := entropy.Sweep(ids, ks)
		if err != nil {
			return nil, err
		}
		series[i] = rs
	}
	for j, k := range ks {
		row := []float64{float64(k)}
		for i := range order {
			row = append(row, series[i][j].Bits)
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("opens=%d seed=%d", cfg.Opens, cfg.Seed),
		"y = successor entropy (bits); lower = more predictable")
	return t, nil
}

// fig8 computes entropy sweeps of a workload filtered through LRU caches
// of varying capacity.
func fig8(cfg Config, p workload.Profile) (*Table, error) {
	ids, err := openIDs(cfg, p)
	if err != nil {
		return nil, err
	}
	filters := []int{1, 10, 50, 100, 500, 1000}
	id := "8" + panelSuffix(p, workload.ProfileWrite, workload.ProfileUsers)
	t := &Table{
		ID:      id,
		XLabel:  "successor sequence length",
		Columns: []string{"length", "f1", "f10", "f50", "f100", "f500", "f1000"},
	}
	t.Title, _ = Title(id)
	ks := seqLengths()
	series := make([][]entropy.Result, len(filters))
	for i, f := range filters {
		misses, err := simulate.FilterLRU(ids, f)
		if err != nil {
			return nil, err
		}
		rs, err := entropy.Sweep(misses, ks)
		if err != nil {
			return nil, err
		}
		series[i] = rs
	}
	for j, k := range ks {
		row := []float64{float64(k)}
		for i := range filters {
			row = append(row, series[i][j].Bits)
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("workload=%s opens=%d seed=%d", p, cfg.Opens, cfg.Seed),
		"series = intervening LRU client cache capacity; y = successor entropy of the miss stream (bits)")
	return t, nil
}

// claims reproduces the §6 headline numbers.
func claims(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "claims",
		XLabel:  "claim",
		Columns: []string{"measured", "paper low", "paper high"},
	}
	t.Title, _ = Title("claims")

	// Claim 1: client-side grouping cuts LRU demand fetches by 50-60%
	// (server workload, g >= 5).
	srvIDs, err := openIDs(cfg, workload.ProfileServer)
	if err != nil {
		return nil, err
	}
	lru, err := simulate.RunClient(srvIDs, 300, 1)
	if err != nil {
		return nil, err
	}
	g5, err := simulate.RunClient(srvIDs, 300, 5)
	if err != nil {
		return nil, err
	}
	clientReduction := 100 * (1 - float64(g5.Fetches)/float64(lru.Fetches))
	t.addClaim("client fetch reduction, server workload, g5 (%)", clientReduction, 50, 60)

	// Claim 2: g2-g3 cut miss rates by over 40% on the server workload.
	g3, err := simulate.RunClient(srvIDs, 300, 3)
	if err != nil {
		return nil, err
	}
	t.addClaim("client fetch reduction, server workload, g3 (%)",
		100*(1-float64(g3.Fetches)/float64(lru.Fetches)), 40, 60)

	// Claims 3-4: server cache behind client filters. Small filters
	// (<200): agg improves hit rate by 20-1200%. Large filters (>=300):
	// agg keeps 30-60% while LRU fails.
	wsIDs, err := openIDs(cfg, workload.ProfileWorkstation)
	if err != nil {
		return nil, err
	}
	smallAgg, err := simulate.RunServer(wsIDs, simulate.ServerConfig{
		FilterCapacity: 150, ServerCapacity: 300, Scheme: simulate.SchemeAggregating, GroupSize: 5})
	if err != nil {
		return nil, err
	}
	smallLRU, err := simulate.RunServer(wsIDs, simulate.ServerConfig{
		FilterCapacity: 150, ServerCapacity: 300, Scheme: simulate.SchemeLRU})
	if err != nil {
		return nil, err
	}
	improvement := 100 * (smallAgg.HitRate - smallLRU.HitRate) / smallLRU.HitRate
	t.addClaim("server hit-rate improvement vs LRU, filter=150 (%)", improvement, 20, 1200)

	largeAgg, err := simulate.RunServer(wsIDs, simulate.ServerConfig{
		FilterCapacity: 400, ServerCapacity: 300, Scheme: simulate.SchemeAggregating, GroupSize: 5})
	if err != nil {
		return nil, err
	}
	t.addClaim("server agg hit rate, filter=400 > cache (%)", 100*largeAgg.HitRate, 30, 60)

	t.Notes = append(t.Notes,
		fmt.Sprintf("opens=%d seed=%d", cfg.Opens, cfg.Seed),
		"paper low/high bracket the range reported in §1/§6; shapes, not absolutes, are the reproduction target")
	return t, nil
}

func seqLengths() []int {
	ks := make([]int, 20)
	for i := range ks {
		ks[i] = i + 1
	}
	return ks
}

func panelSuffix(p, a, b workload.Profile) string {
	if p == a {
		return "a"
	}
	if p == b {
		return "b"
	}
	return "?"
}

func panelSuffix3(p, a, b, c workload.Profile) string {
	switch p {
	case a:
		return "a"
	case b:
		return "b"
	case c:
		return "c"
	}
	return "?"
}
