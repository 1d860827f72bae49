package main

import (
	"container/list"
	"fmt"
	"math"
	"runtime"

	"aggcache/internal/simulate"
	"aggcache/internal/trace"
	"aggcache/internal/workload"
)

// sim_sweep replays the paper's two simulations with no network at all: the
// Figure 3 client sweep (group size x capacity) and the Figure 4 server sweep
// (scheme x client filter), over the four standard profiles, one cell at a
// time on one goroutine.
const (
	simOpens     = 120000
	simServerCap = 300
	simNominalB  = 4096 // bytes a simulated file is priced at
)

// A round has 5 x 10 x 4 = 200 client-sweep cells and 3 x 19 x 4 = 228
// server-sweep cells, so p95 over the cells of one round has 10 and 11 cells
// beyond it. The filter grid is twice as fine as the capacity grid for that
// reason alone.
var (
	simGroups     = []int{1, 2, 3, 5, 10}
	simCapacities = []int{50, 100, 150, 200, 250, 300, 350, 400, 450, 500}
	simFilters    = []int{50, 75, 100, 125, 150, 175, 200, 225, 250, 275, 300, 325, 350, 375, 400, 425, 450, 475, 500}
	simSchemes    = []simulate.ServerConfig{
		{ServerCapacity: simServerCap, Scheme: simulate.SchemeAggregating, GroupSize: 5},
		{ServerCapacity: simServerCap, Scheme: simulate.SchemeLRU},
		{ServerCapacity: simServerCap, Scheme: simulate.SchemeLFU},
	}
)

// simInputs is the generated input of a sim_sweep run.
type simInputs struct {
	profiles      []workload.Profile
	ids           map[workload.Profile][]trace.FileID
	paths         []string // of the server profile, for the path-keyed replays
	genNsPerEvent float64
}

// fig3Reference and fig4Reference are the EXPERIMENTS.md cells for seed 1 at
// 120 000 opens: demand fetches at capacity 100, and server hit rates in
// percent (g5, lru, lfu) by filter capacity.
var fig3Reference = map[workload.Profile]map[int]uint64{
	workload.ProfileServer: {1: 71006, 2: 41255, 3: 30924, 5: 22731, 10: 16698},
	workload.ProfileWrite:  {1: 83799, 5: 44698},
}

var fig4Reference = map[workload.Profile]map[int][3]float64{
	workload.ProfileWorkstation: {50: {69.8, 46.7, 17.3}, 150: {55.5, 20.5, 10.3}, 300: {45.5, 4.6, 3.7}, 500: {39.7, 0.0, 0.0}},
	workload.ProfileUsers:       {50: {63.8, 47.1, 22.9}, 150: {46.5, 21.2, 13.6}, 300: {35.8, 5.1, 3.4}, 500: {31.3, 0.0, 0.0}},
	workload.ProfileServer:      {50: {85.3, 61.7, 21.1}, 150: {74.4, 31.9, 12.7}, 300: {64.5, 8.6, 7.5}, 500: {58.6, 0.7, 0.7}},
}

// referenceLRUMisses is an independent plain-LRU simulation, the yardstick
// for RunClient at group size 1 and for FilterLRU on any seed.
func referenceLRUMisses(ids []trace.FileID, capacity int) uint64 {
	order := list.New()
	where := make(map[trace.FileID]*list.Element, capacity)
	var misses uint64
	for _, id := range ids {
		if e, ok := where[id]; ok {
			order.MoveToFront(e)
			continue
		}
		misses++
		if order.Len() == capacity {
			last := order.Back()
			delete(where, last.Value.(trace.FileID))
			order.Remove(last)
		}
		where[id] = order.PushFront(id)
	}
	return misses
}

// setupSim generates the four traces and runs the warm-up pass, which is also
// the check of the simulators: plain LRU (group size 1) and FilterLRU at every
// capacity against an independent LRU on every seed, and the capacity-100 and
// filter 50/150/300/500 cells against EXPERIMENTS.md on seed 1.
func setupSim(seed int64, opens int) (*simInputs, error) {
	in := &simInputs{profiles: workload.Profiles(), ids: make(map[workload.Profile][]trace.FileID)}
	var genNs int64
	var events int
	for _, p := range in.profiles {
		start := nowNs()
		tr, err := workload.Standard(p, seed, opens)
		if err != nil {
			return nil, err
		}
		genNs += nowNs() - start
		events += len(tr.Events)
		in.ids[p] = tr.OpenIDs()
		if p == workload.ProfileServer {
			in.paths = make([]string, tr.Paths.Len())
			for i := range in.paths {
				in.paths[i] = tr.Paths.Path(trace.FileID(i))
			}
		}
	}
	in.genNsPerEvent = float64(genNs) / float64(events)

	reference := seed == 1 && opens == simOpens
	for _, p := range in.profiles {
		ids := in.ids[p]
		for _, c := range simCapacities {
			want := referenceLRUMisses(ids, c)
			r, err := simulate.RunClient(ids, c, 1)
			if err != nil {
				return nil, err
			}
			if r.Fetches != want {
				return nil, fmt.Errorf("sim_sweep: %s lru at capacity %d: %d fetches, independent LRU says %d", p, c, r.Fetches, want)
			}
			miss, err := simulate.FilterLRU(ids, c)
			if err != nil {
				return nil, err
			}
			if uint64(len(miss)) != want {
				return nil, fmt.Errorf("sim_sweep: %s FilterLRU(%d) passes %d opens, independent LRU says %d", p, c, len(miss), want)
			}
		}
		for _, g := range simGroups {
			r, err := simulate.RunClient(ids, 100, g)
			if err != nil {
				return nil, err
			}
			if r.Stats.Hits+r.Stats.Misses != uint64(len(ids)) {
				return nil, fmt.Errorf("sim_sweep: %s g%d: hits+misses = %d, want %d", p, g, r.Stats.Hits+r.Stats.Misses, len(ids))
			}
			if ref, ok := fig3Reference[p][g]; ok && reference && r.Fetches != ref {
				return nil, fmt.Errorf("sim_sweep: %s g%d at capacity 100: %d fetches, EXPERIMENTS.md says %d", p, g, r.Fetches, ref)
			}
		}
		for _, f := range []int{50, 150, 300, 500} {
			for i, scheme := range simSchemes {
				scheme.FilterCapacity = f
				r, err := simulate.RunServer(ids, scheme)
				if err != nil {
					return nil, err
				}
				if r.ServerHits > r.ClientMisses {
					return nil, fmt.Errorf("sim_sweep: %s %s filter %d: %d hits out of %d requests", p, scheme.Scheme, f, r.ServerHits, r.ClientMisses)
				}
				if ref, ok := fig4Reference[p][f]; ok && reference && math.Abs(100*r.HitRate-ref[i]) > 0.05+1e-9 {
					return nil, fmt.Errorf("sim_sweep: %s %s filter %d: hit rate %.2f%%, EXPERIMENTS.md says %.1f%%", p, scheme.Scheme, f, 100*r.HitRate, ref[i])
				}
			}
		}
	}
	return in, nil
}

// simRound is one pass over every cell of both sweeps.
type simRound struct {
	ns          int64 // the cells' wall time
	opens       uint64
	client      *hist // per client-sweep cell: picoseconds per open
	server      *hist // per server-sweep cell: picoseconds per open
	clientCells []simulate.ClientResult
	serverCells []simulate.ServerResult
}

// runSimRound times every cell once.
func runSimRound(in *simInputs) (simRound, error) {
	r := simRound{client: newHist(), server: newHist()}
	for _, p := range in.profiles {
		ids := in.ids[p]
		timed := func(h *hist, cell func() error) error {
			t0 := nowNs()
			err := cell()
			ns := nowNs() - t0
			h.observe(ns * 1000 / int64(len(ids)))
			r.ns += ns
			r.opens += uint64(len(ids))
			return err
		}
		for _, g := range simGroups {
			for _, c := range simCapacities {
				if err := timed(r.client, func() error {
					res, err := simulate.RunClient(ids, c, g)
					r.clientCells = append(r.clientCells, res)
					return err
				}); err != nil {
					return r, err
				}
			}
		}
		for _, scheme := range simSchemes {
			for _, f := range simFilters {
				scheme.FilterCapacity = f
				if err := timed(r.server, func() error {
					res, err := simulate.RunServer(ids, scheme)
					r.serverCells = append(r.serverCells, res)
					return err
				}); err != nil {
					return r, err
				}
			}
		}
	}
	return r, nil
}

// sameCells reports how many of a round's cells differ from the first
// round's: the simulators are deterministic, so none may.
func sameCells(first, r simRound) (differing int) {
	for i, c := range r.clientCells {
		if c != first.clientCells[i] {
			differing++
		}
	}
	for i, c := range r.serverCells {
		if c != first.serverCells[i] {
			differing++
		}
	}
	return differing
}

// simRoundSeconds is about what one round at simOpens takes on the reference
// box; -seconds buys whole rounds, and below one round, shorter traces.
const simRoundSeconds = 6.5

// runSim measures sim_sweep: a fixed number of whole rounds, which are its
// segments. An "op" is one simulated open inside one cell.
func runSim(opt options, rep *report) error {
	seconds := opt.seconds
	if opt.traced {
		seconds *= tracedShare
	}
	rounds, opens := max(int(math.Round(seconds/simRoundSeconds)), 1), simOpens
	if seconds < simRoundSeconds {
		opens = max(int(simOpens*seconds/simRoundSeconds), 100)
	}
	setupStart := nowNs()
	in, err := setupSim(opt.seed, opens)
	if err != nil {
		return err
	}
	warmupS := float64(nowNs()-setupStart) / 1e9

	runtime.GC()
	mem0, cpu0, t0 := readMem(), cpuNs(), nowNs()
	done := make([]simRound, 0, rounds)
	var busy int64
	for len(done) < rounds {
		r, err := runSimRound(in)
		if err != nil {
			return err
		}
		done = append(done, r)
		busy += r.ns
		if nowNs()-t0 > lateAfterNs(seconds) {
			return fmt.Errorf("sim_sweep: %d of %d rounds done after %.3g s; the pinned round count assumes the reference box", len(done), rounds, float64(lateAfterNs(seconds))/1e9)
		}
	}
	wallNs, cpu := nowNs()-t0, cpuNs()-cpu0
	mem := readMem().since(mem0)

	var total, failed uint64
	rates := make([]float64, len(done))
	clientSegs, serverSegs := make([]*hist, len(done)), make([]*hist, len(done))
	for i, r := range done {
		total += r.opens
		failed += uint64(sameCells(done[0], r)) * uint64(opens)
		rates[i] = float64(r.opens) / float64(r.ns) * 1e9
		clientSegs[i], serverSegs[i] = r.client, r.server
	}
	rep.attempted, rep.failed = total, failed

	var hits, accesses, files, serverHits, serverReqs uint64
	for _, c := range done[0].clientCells {
		hits += c.Stats.Hits
		accesses += c.Stats.Hits + c.Stats.Misses
		files += c.Stats.FilesFetched
	}
	for _, c := range done[0].serverCells {
		serverHits += c.ServerHits
		serverReqs += c.ClientMisses
	}

	// The timings, as on the service workloads, are diagnostics.
	rep.set("loadgen.ops_per_s", median(rates))
	for _, p := range []struct {
		name string
		segs []*hist
		q    float64
	}{
		{"loadgen.open_p50_us", clientSegs, 0.50}, {"loadgen.open_p95_us", clientSegs, 0.95},
		{"loadgen.fetch_p50_us", serverSegs, 0.50}, {"loadgen.fetch_p95_us", serverSegs, 0.95},
	} {
		v, beyond := segmentQuantile(p.segs, p.q)
		rep.set(p.name, v/1e6) // picoseconds per open -> microseconds
		rep.notef("%s: %d cells in each of %d rounds, at least %d beyond the rank", p.name, p.segs[0].n, len(done), beyond)
	}
	rep.set("loadgen.cpu_us_per_op", usFromNs(float64(cpu))/float64(total))
	rep.set("runtime.peak_rss_mb", peakRSSMiB())

	if !opt.traced {
		rep.set("setup_s", float64(t0)/1e9)
		rep.set("client_hit_rate", ratio(hits, accesses))
		rep.set("server_miss_rate", ratio(serverReqs-serverHits, serverReqs))
		rep.set("bytes_per_open", float64(files)*simNominalB/float64(accesses))
		rep.set("allocs_per_op", ratio(mem.mallocs, total))
		rep.notef("server_hit_rate (Fig 4's axis) = 1 - server_miss_rate = %.6f", ratio(serverHits, serverReqs))
		return nil
	}

	rep.set("workload.generate_ns_per_event", in.genNsPerEvent)
	rep.set("setup.warmup_s", warmupS)
	rep.set("runtime.gc_cycles", float64(mem.gcCycles))
	rep.set("runtime.gc_pause_ms", float64(mem.gcPauseNs)/1e6)
	rep.set("runtime.alloc_bytes_per_op", ratio(mem.allocBytes, total))
	rep.set("runtime.goroutines_peak", 1)
	rep.set("loadgen.clock_overhead_ns", clockOverheadNs())
	rep.set("loadgen.self_share", 1-float64(busy)/float64(wallNs))
	// Nothing is decorated on this workload, so a traced run is an
	// untraced run.
	rep.set("trace.overhead_ratio", 1)
	rep.notef("sockets opened: 0")
	return replayLayers(in.ids[workload.ProfileServer], in.paths, replayBudget(opt.seconds), rep)
}
