package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"aggcache/internal/cache"
	"aggcache/internal/core"
	"aggcache/internal/group"
	"aggcache/internal/hoard"
	"aggcache/internal/placement"
	"aggcache/internal/prefetch"
	"aggcache/internal/simulate"
	"aggcache/internal/successor"
	"aggcache/internal/trace"
	"aggcache/internal/workload"
)

// Extension experiments: studies beyond the paper's figures, covering its
// related-work comparisons (explicit prefetchers, §5) and its stated
// future-work applications (data placement and mobile hoarding, §6).
// They carry "x"-prefixed IDs to keep the figure namespace clean.

// xprefetch compares the aggregating cache against the explicit
// prefetchers of §5 at equal cache capacity: hit rate is only half the
// story — the server-request column shows the load the prefetchers add
// and grouping avoids.
func xprefetch(cfg Config) (*Table, error) {
	ids, err := openIDs(cfg, workload.ProfileServer)
	if err != nil {
		return nil, err
	}
	const (
		capacity = 300
		depth    = 4
	)
	t := &Table{
		ID:      "xprefetch",
		XLabel:  "scheme",
		Columns: []string{"hit rate (%)", "demand fetches", "total server requests", "prefetch accuracy (%)"},
	}
	t.Title, _ = Title("xprefetch")

	// Plain LRU.
	lru, err := simulate.RunClient(ids, capacity, 1)
	if err != nil {
		return nil, err
	}
	t.RowLabels = append(t.RowLabels, "lru")
	t.Rows = append(t.Rows, []float64{100 * lru.HitRate, float64(lru.Fetches), float64(lru.Fetches), 0})

	// Explicit prefetchers.
	preds := []prefetch.Predictor{
		prefetch.NewFirstSuccessor(),
		prefetch.NewLastSuccessor(),
	}
	if pg, err := prefetch.NewProbabilityGraph(4, 0.1); err == nil {
		preds = append(preds, pg)
	}
	if ppm, err := prefetch.NewPPM(2); err == nil {
		preds = append(preds, ppm)
	}
	for _, p := range preds {
		c, err := prefetch.NewPrefetchingCache(capacity, depth, p)
		if err != nil {
			return nil, err
		}
		for _, id := range ids {
			c.Access(id)
		}
		s := c.Stats()
		t.RowLabels = append(t.RowLabels, p.Name())
		t.Rows = append(t.Rows, []float64{
			100 * s.HitRate(),
			float64(s.DemandFetches()),
			float64(s.TotalRequests()),
			100 * s.Accuracy(),
		})
	}

	// The aggregating cache (one request per miss, group rides along).
	agg, err := simulate.RunClient(ids, capacity, depth+1)
	if err != nil {
		return nil, err
	}
	t.RowLabels = append(t.RowLabels, fmt.Sprintf("aggregating g=%d", depth+1))
	t.Rows = append(t.Rows, []float64{
		100 * agg.HitRate,
		float64(agg.Fetches),
		float64(agg.Fetches),
		100 * agg.Stats.PrefetchAccuracy(),
	})

	t.Notes = append(t.Notes,
		fmt.Sprintf("workload=server opens=%d seed=%d capacity=%d prefetch depth=%d", cfg.Opens, cfg.Seed, capacity, depth),
		"extension study (paper §5): explicit prefetchers pay one request per prediction; grouping ride-shares the miss")
	return t, nil
}

// xplacement compares layouts by mean seek distance (§2.1 / §6 future
// work).
func xplacement(cfg Config) (*Table, error) {
	ids, err := openIDs(cfg, workload.ProfileServer)
	if err != nil {
		return nil, err
	}
	tr, err := successor.NewTracker(successor.PolicyLRU, 3)
	if err != nil {
		return nil, err
	}
	tr.ObserveAll(ids)
	b, err := group.NewBuilder(tr, 8, group.StrategyChain)
	if err != nil {
		return nil, err
	}
	cover := group.BuildCover(tr, b, ids)

	t := &Table{
		ID:      "xplacement",
		XLabel:  "layout",
		Columns: []string{"mean seek (slots)", "total seek (k-slots)", "unplaced"},
	}
	t.Title, _ = Title("xplacement")
	layouts := []struct {
		name   string
		layout *placement.Layout
	}{
		{"sequential (first access)", placement.Sequential(ids)},
		{"organ pipe (frequency)", placement.OrganPipe(ids)},
		{"grouped (covering sets)", placement.Grouped(cover, ids)},
	}
	for _, l := range layouts {
		c, err := placement.SeekCost(l.layout, ids)
		if err != nil {
			return nil, err
		}
		t.RowLabels = append(t.RowLabels, l.name)
		t.Rows = append(t.Rows, []float64{c.Mean(), float64(c.Total) / 1000, float64(c.Unplaced)})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("workload=server opens=%d seed=%d group size=8", cfg.Opens, cfg.Seed),
		"extension study (paper §2.1/§6): relationship-aware placement vs the frequency-only organ pipe")
	return t, nil
}

// xhoard compares hoard selectors on disconnected session completion (§6
// future work).
func xhoard(cfg Config) (*Table, error) {
	// Hoarding wants a session-structured workload with interrupted
	// histories; build it directly from tasks so run boundaries are
	// known.
	rng := rand.New(rand.NewSource(cfg.Seed))
	const (
		numTasks = 12
		taskLen  = 8
	)
	var tasks [][]trace.FileID
	id := trace.FileID(0)
	for i := 0; i < numTasks; i++ {
		var task []trace.FileID
		for j := 0; j < taskLen; j++ {
			task = append(task, id)
			id++
		}
		tasks = append(tasks, task)
	}
	pickTask := func() int {
		if rng.Float64() < 0.55 {
			return rng.Intn(3) // hot tasks
		}
		return 3 + rng.Intn(numTasks-3)
	}
	var past []trace.FileID
	for i := 0; i < cfg.Opens/taskLen; i++ {
		for _, fid := range tasks[pickTask()] {
			past = append(past, fid)
			if rng.Float64() > 0.65 {
				break
			}
		}
	}
	var future [][]trace.FileID
	for i := 0; i < 500; i++ {
		future = append(future, tasks[pickTask()])
	}

	// Hoard closures use frequency-ranked successor lists: recency wins
	// for cache metadata (Fig 5), but hoarding wants *stable* working-set
	// membership, and frequency ranking keeps interrupted-run noise out
	// of the chains (see the xhoard notes in EXPERIMENTS.md).
	tr, err := successor.NewTracker(successor.PolicyLFU, 3)
	if err != nil {
		return nil, err
	}
	tr.ObserveAll(past)

	t := &Table{
		ID:      "xhoard",
		XLabel:  "budget (files)",
		Columns: []string{"budget", "frequency completion (%)", "group-closure completion (%)"},
	}
	t.Title, _ = Title("xhoard")
	for _, budget := range []int{8, 16, 32, 64} {
		freq, err := hoard.Build(tr, hoard.PolicyFrequency, budget, taskLen)
		if err != nil {
			return nil, err
		}
		closure, err := hoard.Build(tr, hoard.PolicyGroupClosure, budget, taskLen)
		if err != nil {
			return nil, err
		}
		fr := hoard.EvaluateRuns(freq, future)
		cr := hoard.EvaluateRuns(closure, future)
		t.Rows = append(t.Rows, []float64{
			float64(budget),
			100 * fr.CompletionRate(),
			100 * cr.CompletionRate(),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("synthetic task workload, %d tasks x %d files, interrupted histories, seed=%d", numTasks, taskLen, cfg.Seed),
		"extension study (paper §6): y = fraction of disconnected sessions fully served by the hoard")
	return t, nil
}

// xlatency prices the Figure-4 scenario in milliseconds instead of hit
// rates: one RunServer per scheme, every open costing the latency of the
// level that served it.
func xlatency(cfg Config) (*Table, error) {
	ids, err := openIDs(cfg, workload.ProfileWorkstation)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "xlatency",
		XLabel:  "server scheme",
		Columns: []string{"mean open latency (ms)", "client hit (%)", "server hit (%)", "backend fetches"},
	}
	t.Title, _ = Title("xlatency")
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, scheme := range []simulate.Scheme{simulate.SchemeLRU, simulate.SchemeLFU, simulate.SchemeAggregating} {
		res, err := simulate.RunServer(ids, simulate.ServerConfig{
			FilterCapacity: 300,
			ServerCapacity: 300,
			Scheme:         scheme,
			GroupSize:      5,
		})
		if err != nil {
			return nil, err
		}
		label := string(scheme)
		if scheme == simulate.SchemeAggregating {
			label = "aggregating g=5"
		}
		mean := res.MeanLatency(simulate.ClientHitLatency, simulate.ServerHitLatency, simulate.BackendFetchLatency)
		t.RowLabels = append(t.RowLabels, label)
		t.Rows = append(t.Rows, []float64{
			ms(mean),
			100 * float64(res.Opens-res.ClientMisses) / float64(res.Opens),
			100 * res.HitRate,
			float64(res.ClientMisses - res.ServerHits),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("workload=workstation opens=%d seed=%d; client LRU 300 @%gms, server 300 @%gms, backend @%gms",
			cfg.Opens, cfg.Seed, ms(simulate.ClientHitLatency), ms(simulate.ServerHitLatency), ms(simulate.BackendFetchLatency)),
		"extension study: the §4.3 scenario expressed as mean open latency")
	return t, nil
}

// xdecay evaluates the paper's §6 conjecture — that the ideal successor
// likelihood estimate combines recency and frequency — by adding the
// exponentially decayed frequency policy to the Figure-5 comparison.
func xdecay(cfg Config) (*Table, error) {
	ids, err := openIDs(cfg, workload.ProfileWorkstation)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "xdecay",
		XLabel:  "number of successors",
		Columns: []string{"successors", "oracle", "lru", "lfu", "decay(0.75)"},
	}
	t.Title, _ = Title("xdecay")

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
	decay, err := successor.EvaluateReplacementSweep(ids, successor.PolicyDecay, caps)
	if err != nil {
		return nil, err
	}
	for i, c := range caps {
		t.Rows = append(t.Rows, []float64{float64(c), oracle.MissProbability(), lru[i], lfu[i], decay[i]})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("workload=workstation opens=%d seed=%d lambda=%.2f", cfg.Opens, cfg.Seed, successor.DefaultDecay),
		"extension study (paper §6): decayed frequency as the recency/frequency hybrid")
	return t, nil
}

// xweb evaluates grouping in the web-proxy domain of the related work
// (§5, Hummingbird): page-plus-embedded-object structure learned from the
// access stream alone, with no hyperlink hints.
func xweb(cfg Config) (*Table, error) {
	tr, err := workload.GenerateWeb(workload.WebConfig{Seed: cfg.Seed, Requests: cfg.Opens})
	if err != nil {
		return nil, err
	}
	ids := tr.OpenIDs()
	t := &Table{
		ID:      "xweb",
		XLabel:  "proxy cache capacity (files)",
		Columns: []string{"capacity", "lru", "g3", "g7", "reduction g7 (%)"},
	}
	t.Title, _ = Title("xweb")
	for _, capacity := range []int{200, 400, 800} {
		lru, err := simulate.RunClient(ids, capacity, 1)
		if err != nil {
			return nil, err
		}
		g3, err := simulate.RunClient(ids, capacity, 3)
		if err != nil {
			return nil, err
		}
		g7, err := simulate.RunClient(ids, capacity, 7)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []float64{
			float64(capacity),
			float64(lru.Fetches),
			float64(g3.Fetches),
			float64(g7.Fetches),
			100 * (1 - float64(g7.Fetches)/float64(lru.Fetches)),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("web workload: requests=%d seed=%d (pages + embedded objects, link-following sessions)", cfg.Opens, cfg.Seed),
		"extension study (paper §5/Hummingbird): structural relationships learned purely from the request stream")
	return t, nil
}

// xoverlap quantifies the storage cost of overlapping groups as the group
// size grows — the paper's §6 "effects of group formation on storage
// requirements".
func xoverlap(cfg Config) (*Table, error) {
	ids, err := openIDs(cfg, workload.ProfileServer)
	if err != nil {
		return nil, err
	}
	tr, err := successor.NewTracker(successor.PolicyLRU, 3)
	if err != nil {
		return nil, err
	}
	tr.ObserveAll(ids)

	t := &Table{
		ID:      "xoverlap",
		XLabel:  "group size g",
		Columns: []string{"g", "groups", "overlap factor", "replicas (%)", "max memberships", "mean group len"},
	}
	t.Title, _ = Title("xoverlap")
	for _, g := range []int{2, 3, 5, 8, 12} {
		b, err := group.NewBuilder(tr, g, group.StrategyChain)
		if err != nil {
			return nil, err
		}
		cover := group.BuildCover(tr, b, ids)
		st := cover.Stats()
		replicaPct := 0.0
		if st.Distinct > 0 {
			replicaPct = 100 * float64(st.Replicas) / float64(st.Distinct)
		}
		t.Rows = append(t.Rows, []float64{
			float64(g),
			float64(st.Groups),
			cover.OverlapFactor(),
			replicaPct,
			float64(st.MaxMemberships),
			st.MeanGroupLen,
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("workload=server opens=%d seed=%d", cfg.Opens, cfg.Seed),
		"extension study (paper §6): replicas = extra physical copies if the cover drives placement")
	return t, nil
}

// xcontext quantifies the §2.2 modeling question — should events be
// differentiated by the driving client? — on the multi-user workload:
// successor metadata quality when transitions are attributed per client
// vs taken from the merged stream.
func xcontext(cfg Config) (*Table, error) {
	tr, _, err := standardWorkload(cfg, workload.ProfileUsers)
	if err != nil {
		return nil, err
	}
	events := tr.Events
	t := &Table{
		ID:      "xcontext",
		XLabel:  "successor list size",
		Columns: []string{"successors", "merged stream", "per-client context"},
	}
	t.Title, _ = Title("xcontext")
	for _, capacity := range []int{1, 2, 3, 5, 8} {
		merged, err := successor.EvaluateReplacementEvents(events, successor.PolicyLRU, capacity, false)
		if err != nil {
			return nil, err
		}
		perClient, err := successor.EvaluateReplacementEvents(events, successor.PolicyLRU, capacity, true)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []float64{
			float64(capacity),
			merged.MissProbability(),
			perClient.MissProbability(),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("workload=users (%d interleaved clients) opens=%d seed=%d", 8, cfg.Opens, cfg.Seed),
		"extension study (paper §2.2): y = P(successor list misses the next file); per-client transitions never span clients")
	return t, nil
}

// pruneSchemes are xprune's rows: static g and the link cut at three
// shares.
var pruneSchemes = []struct {
	label string
	cfg   core.Config
}{
	{"static g=5", core.Config{GroupSize: 5}},
	{"cut 0.2", core.Config{GroupSize: 5, LinkShare: 0.2}},
	{"cut 1/3", core.Config{GroupSize: 5, LinkShare: 1.0 / 3}},
	{"cut 0.5", core.Config{GroupSize: 5, LinkShare: 0.5}},
}

// xprune weighs the link cut (core.Config.LinkShare) against static g:
// what each costs in demand fetches and what it transfers for them, on
// every profile at four client capacities.
func xprune(cfg Config) (*Table, error) {
	profiles := []workload.Profile{
		workload.ProfileWorkstation, workload.ProfileUsers,
		workload.ProfileWrite, workload.ProfileServer,
	}
	capacities := []int{20, 50, 100, 300}
	t := &Table{
		ID:      "xprune",
		XLabel:  "profile, client capacity, group rule",
		Columns: []string{"capacity", "demand fetches", "files transferred", "hit rate (%)", "prefetch accuracy (%)"},
	}
	t.Title, _ = Title("xprune")
	per := len(capacities) * len(pruneSchemes)
	t.Rows = make([][]float64, len(profiles)*per)
	t.RowLabels = make([]string, len(t.Rows))
	err := simulate.ForEach(len(t.Rows), sweepOptions(cfg), func(i int) error {
		p := profiles[i/per]
		capacity := capacities[i%per/len(pruneSchemes)]
		scheme := pruneSchemes[i%len(pruneSchemes)]
		ids, err := openIDs(cfg, p)
		if err != nil {
			return err
		}
		c := scheme.cfg
		c.Capacity = capacity
		r, err := simulate.RunClientConfig(ids, c)
		if err != nil {
			return err
		}
		t.RowLabels[i] = fmt.Sprintf("%s %s", p, scheme.label)
		t.Rows[i] = []float64{
			float64(capacity),
			float64(r.Fetches),
			float64(r.Stats.FilesFetched),
			100 * r.HitRate,
			100 * r.Stats.PrefetchAccuracy(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("opens=%d seed=%d; aggregating client cache, g=5 as the cap", cfg.Opens, cfg.Seed),
		"cut s: a successor joins a group only when its count is more than s of its predecessor's retained counts")
	return t, nil
}

// xbakeoff runs every replacement policy in the library plus the
// aggregating cache over all four workloads at one capacity — the
// capstone context table for where grouping sits among classic policies.
func xbakeoff(cfg Config) (*Table, error) {
	const capacity = 300
	t := &Table{
		ID:      "xbakeoff",
		XLabel:  "policy",
		Columns: []string{"workstation", "users", "write", "server"},
	}
	t.Title, _ = Title("xbakeoff")

	profiles := []workload.Profile{
		workload.ProfileWorkstation, workload.ProfileUsers,
		workload.ProfileWrite, workload.ProfileServer,
	}
	streams := make([][]trace.FileID, len(profiles))
	for i, p := range profiles {
		ids, err := openIDs(cfg, p)
		if err != nil {
			return nil, err
		}
		streams[i] = ids
	}

	addRow := func(label string, run func(ids []trace.FileID) (float64, error)) error {
		row := make([]float64, 0, len(streams))
		for _, ids := range streams {
			hr, err := run(ids)
			if err != nil {
				return err
			}
			row = append(row, 100*hr)
		}
		t.RowLabels = append(t.RowLabels, label)
		t.Rows = append(t.Rows, row)
		return nil
	}

	for _, p := range cache.Policies {
		if err := addRow(string(p), func(ids []trace.FileID) (float64, error) {
			c, err := cache.New(p, capacity)
			if err != nil {
				return 0, err
			}
			for _, id := range ids {
				c.Access(id)
			}
			return c.Stats().HitRate(), nil
		}); err != nil {
			return nil, err
		}
	}
	if err := addRow("aggregating g=5", func(ids []trace.FileID) (float64, error) {
		r, err := simulate.RunClient(ids, capacity, 5)
		if err != nil {
			return 0, err
		}
		return r.HitRate, nil
	}); err != nil {
		return nil, err
	}
	if err := addRow("OPT (offline bound)", func(ids []trace.FileID) (float64, error) {
		opt, err := cache.NewOPT(capacity, ids)
		if err != nil {
			return 0, err
		}
		s, err := opt.Run()
		if err != nil {
			return 0, err
		}
		return s.HitRate(), nil
	}); err != nil {
		return nil, err
	}

	t.Notes = append(t.Notes,
		fmt.Sprintf("capacity=%d opens=%d seed=%d; cells = demand hit rate (%%)", capacity, cfg.Opens, cfg.Seed),
		"the aggregating cache may exceed OPT: OPT bounds demand-only policies, while grouping transfers extra files per miss")
	return t, nil
}

// hierSchemes are xhier's server columns, in order.
var hierSchemes = []struct {
	label  string
	scheme simulate.Scheme
}{
	{"lru", simulate.SchemeLRU},
	{"g5", simulate.SchemeAggregating},
	{"2g", simulate.SchemeDeep},
	{"2g re-staged", simulate.SchemeStaged},
}

// hierFilters are xhier's per-client cache capacities.
var hierFilters = []int{32, 64, 150, 300}

// xhier is Figure 4 behind the paper's own client rather than an LRU one:
// each trace client runs the service's client cache, which installs the
// group the server answers each miss with and piggybacks its history, in
// front of one 300-file server that cuts weak links as the network server
// does. Per profile and client capacity it reports the server miss rate
// of an LRU server, the paper's g5 server, one that builds its groups
// twice as deep and one that also re-stages the deep group on a hit and
// keeps its members on a probation list (the network server's rule), each
// beside the files its cache loaded per open.
func xhier(cfg Config) (*Table, error) {
	const serverCap = 300
	profiles := []workload.Profile{
		workload.ProfileWrite, workload.ProfileUsers,
		workload.ProfileServer, workload.ProfileWorkstation,
	}
	t := &Table{
		ID:     "xhier",
		XLabel: "profile, client cache capacity",
		Columns: []string{"filter",
			"lru", "lru loads/open", "g5", "g5 loads/open",
			"2g", "2g loads/open", "2g re-staged", "2g re-staged loads/open"},
	}
	t.Title, _ = Title("xhier")
	rows := len(profiles) * len(hierFilters)
	cells := make([]simulate.MultiServerResult, rows*len(hierSchemes))
	err := simulate.ForEach(len(cells), sweepOptions(cfg), func(i int) error {
		row := i / len(hierSchemes)
		tr, _, err := standardWorkload(cfg, profiles[row/len(hierFilters)])
		if err != nil {
			return err
		}
		cells[i], err = simulate.RunServerMulti(tr.Events, simulate.ServerConfig{
			FilterCapacity: hierFilters[row%len(hierFilters)],
			ServerCapacity: serverCap,
			Scheme:         hierSchemes[i%len(hierSchemes)].scheme,
			GroupSize:      5,
			Piggyback:      true,
			Filter:         simulate.ClientGroup,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	for row := 0; row < rows; row++ {
		line := []float64{float64(hierFilters[row%len(hierFilters)])}
		for _, r := range cells[row*len(hierSchemes) : (row+1)*len(hierSchemes)] {
			line = append(line, 1-r.HitRate, float64(r.Loads)/float64(r.Opens))
		}
		t.RowLabels = append(t.RowLabels, string(profiles[row/len(hierFilters)]))
		t.Rows = append(t.Rows, line)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("opens=%d seed=%d; server cache=%d files, g=5, link cut 1/3; one client cache per trace client", cfg.Opens, cfg.Seed, serverCap),
		"y = server miss rate per request reaching the server, and files loaded into the server cache per open",
		"2g: groups built 2g deep, first g sent, installed on a miss, members at the LRU tail; re-staged: installed on a hit too, members on a probation list (core.AggregatingCache.Stage)")
	return t, nil
}
