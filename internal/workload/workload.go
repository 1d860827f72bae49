// Package workload synthesizes file-access traces with the structural
// properties of the four CMU DFSTrace workloads the paper evaluates
// (mozart=workstation, ives=users, dvorak=write, barber=server). The real
// traces are proprietary, so this generator is the documented substitution
// (see DESIGN.md §1): it reproduces the properties the paper's results
// depend on — heavy access skew, stable inter-file successor relations
// born from recurring tasks, globally shared "hub" files that belong to
// many working sets, write-driven churn, and multi-user interleaving —
// without claiming the authors' absolute numbers.
//
// The model: each client cycles through *tasks* (think build trees and
// script runs). A task is a fixed ordered list of files, some slots of
// which reference globally shared hub files (the /bin/sh and make of
// §2.1). Task selection follows a Zipf law. Each step may deviate into
// noise (an open of a rarely-reused file), tasks may churn (a member file
// replaced by a fresh one, as compilers and editors do), and opens may be
// followed by writes. The emitted event stream is exactly what the paper's
// predictors consume: an open-event sequence whose predictability varies
// by profile.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"aggcache/internal/trace"
)

// Profile names one of the paper's four calibrated workloads.
type Profile string

// The four workloads of §4.1, named as the paper renames them.
const (
	// ProfileWorkstation models mozart, a personal workstation.
	ProfileWorkstation Profile = "workstation"
	// ProfileUsers models ives, the system with the most users.
	ProfileUsers Profile = "users"
	// ProfileWrite models dvorak, the system with the largest
	// proportion of write activity.
	ProfileWrite Profile = "write"
	// ProfileServer models barber, a server with the highest system-call
	// rate and mostly application-driven (highly predictable) accesses.
	ProfileServer Profile = "server"
)

// Profiles lists the four standard profiles in the paper's order.
func Profiles() []Profile {
	return []Profile{ProfileWorkstation, ProfileUsers, ProfileWrite, ProfileServer}
}

// Config parameterizes trace generation. Zero values take documented
// defaults in Generate; ProfileConfig returns the calibrated presets.
type Config struct {
	// Profile is informational (stamped into paths); presets fill the
	// remaining fields.
	Profile Profile
	// Seed makes generation deterministic.
	Seed int64
	// Opens is the number of open events to emit.
	Opens int
	// Clients is the number of interleaved client machines.
	Clients int
	// InterleaveChunk is how many events one client emits before the
	// stream may switch to another; small chunks mean fine-grained
	// interleaving and a less predictable merged stream.
	InterleaveChunk int
	// Tasks is the number of distinct recurring tasks.
	Tasks int
	// TaskLen is the number of file opens per task run.
	TaskLen int
	// SharedFiles is the size of the hub-file pool; each task embeds a
	// couple of hub files at fixed positions.
	SharedFiles int
	// ZipfS is the task-popularity skew exponent (> 1).
	ZipfS float64
	// Noise is the per-step probability of deviating into an open of a
	// noise-pool file instead of the task's next file.
	Noise float64
	// NoiseUniverse is the size of the noise file pool.
	NoiseUniverse int
	// ChurnProb is the per-task-completion probability that one member
	// file is replaced by a brand-new file (metadata-destroying churn).
	ChurnProb float64
	// FreshProb is the per-step probability of opening a brand-new,
	// never-to-be-reused file (temporaries).
	FreshProb float64
	// WriteFraction is the probability that an open is followed by a
	// write event to the same file.
	WriteFraction float64
	// PhaseEvery makes task popularity non-stationary: after every
	// PhaseEvery opens the Zipf popularity ranking rotates by one task,
	// so the locally hot working set drifts over time the way real users
	// move between projects. 0 disables drift. Non-stationarity is what
	// makes recency beat frequency for successor lists (§4.4): without
	// it, frequency estimates converge and LFU ties or edges out LRU.
	PhaseEvery int
}

// ProfileConfig returns the calibrated preset for p with the given seed
// and open count. The presets are chosen so the cross-profile *orderings*
// the paper reports hold: server is the most predictable and gains most
// from grouping; write is the least stable; users interleaves many
// clients. See workload tests for the asserted calibration targets.
func ProfileConfig(p Profile, seed int64, opens int) (Config, error) {
	base := Config{Profile: p, Seed: seed, Opens: opens}
	switch p {
	case ProfileServer:
		base.Clients = 1
		base.InterleaveChunk = 1
		base.Tasks = 80
		base.TaskLen = 25
		base.SharedFiles = 20
		base.ZipfS = 1.4
		base.Noise = 0.03
		base.NoiseUniverse = 2000
		base.ChurnProb = 0.01
		base.FreshProb = 0.004
		base.WriteFraction = 0.08
		base.PhaseEvery = 2500
	case ProfileWorkstation:
		base.Clients = 1
		base.InterleaveChunk = 1
		base.Tasks = 150
		base.TaskLen = 15
		base.SharedFiles = 25
		base.ZipfS = 1.25
		base.Noise = 0.10
		base.NoiseUniverse = 3000
		base.ChurnProb = 0.03
		base.FreshProb = 0.02
		base.WriteFraction = 0.12
		base.PhaseEvery = 1500
	case ProfileUsers:
		base.Clients = 8
		base.InterleaveChunk = 4
		base.Tasks = 250
		base.TaskLen = 12
		base.SharedFiles = 30
		base.ZipfS = 1.2
		base.Noise = 0.08
		base.NoiseUniverse = 4000
		base.ChurnProb = 0.02
		base.FreshProb = 0.01
		base.WriteFraction = 0.10
		base.PhaseEvery = 1500
	case ProfileWrite:
		base.Clients = 2
		base.InterleaveChunk = 8
		base.Tasks = 150
		base.TaskLen = 20
		base.SharedFiles = 20
		base.ZipfS = 1.25
		base.Noise = 0.08
		base.NoiseUniverse = 3000
		base.ChurnProb = 0.25
		base.FreshProb = 0.06
		base.WriteFraction = 0.50
		base.PhaseEvery = 1200
	default:
		return Config{}, fmt.Errorf("workload: unknown profile %q", p)
	}
	return base, nil
}

// Standard returns the calibrated trace for profile p — the library's
// stand-in for "load the CMU trace".
func Standard(p Profile, seed int64, opens int) (*trace.Trace, error) {
	cfg, err := ProfileConfig(p, seed, opens)
	if err != nil {
		return nil, err
	}
	return Generate(cfg)
}

// Load is the commands' trace source: the trace file at path, in any
// format trace.Read sniffs, or the calibrated trace for profile p when
// path is empty.
func Load(path string, p Profile, seed int64, opens int) (*trace.Trace, error) {
	if path == "" {
		return Standard(p, seed, opens)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Read(f)
}

func (c Config) withDefaults() Config {
	if c.Opens == 0 {
		c.Opens = 50000
	}
	if c.Clients == 0 {
		c.Clients = 1
	}
	if c.InterleaveChunk == 0 {
		c.InterleaveChunk = 1
	}
	if c.Tasks == 0 {
		c.Tasks = 100
	}
	if c.TaskLen == 0 {
		c.TaskLen = 15
	}
	if c.SharedFiles == 0 {
		c.SharedFiles = 20
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.3
	}
	if c.NoiseUniverse == 0 {
		c.NoiseUniverse = 2000
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.Opens < 0:
		return fmt.Errorf("workload: opens must be >= 0, got %d", c.Opens)
	case c.Clients < 1:
		return fmt.Errorf("workload: clients must be >= 1, got %d", c.Clients)
	case c.InterleaveChunk < 1:
		return fmt.Errorf("workload: interleave chunk must be >= 1, got %d", c.InterleaveChunk)
	case c.Tasks < 1 || c.TaskLen < 1:
		return fmt.Errorf("workload: tasks and task length must be >= 1")
	case c.SharedFiles < 1:
		return fmt.Errorf("workload: shared files must be >= 1, got %d", c.SharedFiles)
	case c.NoiseUniverse < 1:
		return fmt.Errorf("workload: noise universe must be >= 1, got %d", c.NoiseUniverse)
	case !(c.ZipfS > 1):
		return fmt.Errorf("workload: ZipfS must be > 1, got %v", c.ZipfS)
	case !unit(c.Noise):
		return fmt.Errorf("workload: noise must be in [0,1], got %v", c.Noise)
	case !unit(c.ChurnProb):
		return fmt.Errorf("workload: churn must be in [0,1], got %v", c.ChurnProb)
	case !unit(c.FreshProb):
		return fmt.Errorf("workload: fresh must be in [0,1], got %v", c.FreshProb)
	case !unit(c.WriteFraction):
		return fmt.Errorf("workload: write fraction must be in [0,1], got %v", c.WriteFraction)
	case c.PhaseEvery < 0:
		return fmt.Errorf("workload: phase interval must be >= 0, got %d", c.PhaseEvery)
	}
	return nil
}

// unit reports whether p is a probability; NaN is not.
func unit(p float64) bool { return p >= 0 && p <= 1 }

// eventBudget is the capacity Generate gives Trace.Events before the first
// emit: each open may bring a create (FreshProb) and a write
// (WriteFraction), plus 1 % slack and four times the square root of the
// expected count, which covers the spread of a short trace. The slice is
// then never regrown, and its copies never double the peak footprint.
func (c Config) eventBudget() int {
	n := float64(c.Opens) * (1 + c.FreshProb + c.WriteFraction)
	return int(n + n/100 + 4*math.Sqrt(n))
}

// generator carries the evolving generation state.
type generator struct {
	cfg   Config
	rng   *rand.Rand
	zipf  *rand.Zipf
	tr    *trace.Trace
	tasks [][]slot // task -> ordered files (mutated by churn)
	// noise[n] is noise file n's id plus one, 0 until the trace first
	// names it; noise files past the table's end are interned on each use.
	noise   []trace.FileID
	clients []*clientState
	now     time.Duration
	freshN  int
	opens   int
}

// maxNoiseTable bounds the noise id table (4 MiB), so a huge NoiseUniverse
// does not cost a table of its size.
const maxNoiseTable = 1 << 20

// slot is one position in a file list a generator walks again and again (a
// task's, a web page's): its path, interned when the trace first names it,
// and from then on its id, so a repeat costs no formatting or hashing.
type slot struct {
	path string
	id   trace.FileID
	seen bool
}

// file returns s's id, interning its path into in on first use.
func (s *slot) file(in *trace.Interner) trace.FileID {
	if !s.seen {
		s.id, s.seen = in.Intern(s.path), true
	}
	return s.id
}

type clientState struct {
	id   uint16
	task int
	pos  int
	uid  uint32
	pid  uint32
}

// Generate synthesizes a trace per cfg. Generation is deterministic for a
// given Config (including Seed).
func Generate(cfg Config) (*trace.Trace, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &generator{
		cfg:   cfg,
		rng:   rng,
		zipf:  rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Tasks-1)),
		tr:    trace.NewTrace(),
		noise: make([]trace.FileID, min(cfg.NoiseUniverse, maxNoiseTable)),
	}
	g.tr.Events = make([]trace.Event, 0, cfg.eventBudget())
	g.buildTasks()
	g.buildClients()
	g.run()
	return g.tr, nil
}

// buildTasks lays out each task's file list, splicing hub files into fixed
// slots so popular executables recur inside many distinct working sets.
func (g *generator) buildTasks() {
	g.tasks = make([][]slot, g.cfg.Tasks)
	for t := range g.tasks {
		files := make([]slot, g.cfg.TaskLen)
		// Two hub files at deterministic-per-task positions.
		hubA := g.rng.Intn(g.cfg.SharedFiles)
		hubB := g.rng.Intn(g.cfg.SharedFiles)
		posA := g.rng.Intn(g.cfg.TaskLen)
		posB := g.rng.Intn(g.cfg.TaskLen)
		for i := range files {
			switch i {
			case posA:
				files[i].path = sharedPath(hubA)
			case posB:
				files[i].path = sharedPath(hubB)
			default:
				files[i].path = fmt.Sprintf("/task%04d/f%03d", t, i)
			}
		}
		g.tasks[t] = files
	}
}

func (g *generator) buildClients() {
	g.clients = make([]*clientState, g.cfg.Clients)
	for i := range g.clients {
		g.clients[i] = &clientState{
			id:   uint16(i + 1),
			task: -1,
			uid:  uint32(1000 + i),
			pid:  uint32(100 + i*7),
		}
	}
}

// run emits events until the open budget is spent, interleaving clients in
// chunks.
func (g *generator) run() {
	for g.opens < g.cfg.Opens {
		c := g.clients[g.rng.Intn(len(g.clients))]
		for n := 0; n < g.cfg.InterleaveChunk && g.opens < g.cfg.Opens; n++ {
			g.step(c)
		}
	}
}

// step emits the next open (plus a possible write) for client c.
func (g *generator) step(c *clientState) {
	if c.task < 0 {
		c.task = g.pickTask()
		c.pos = 0
		c.pid++
	}

	var id trace.FileID
	switch {
	case g.rng.Float64() < g.cfg.FreshProb:
		id = g.tr.Paths.Intern(fmt.Sprintf("/tmp/fresh%07d", g.freshN))
		g.freshN++
		g.emit(c, trace.OpCreate, id)
	case g.rng.Float64() < g.cfg.Noise:
		id = g.noiseFile(g.rng.Intn(g.cfg.NoiseUniverse))
	default:
		id = g.tasks[c.task][c.pos].file(g.tr.Paths)
		c.pos++
	}

	g.emit(c, trace.OpOpen, id)
	g.opens++
	if g.rng.Float64() < g.cfg.WriteFraction {
		g.emit(c, trace.OpWrite, id)
	}

	if c.pos >= len(g.tasks[c.task]) {
		g.churn(c.task)
		c.task = -1
	}
}

// pickTask draws a task from the Zipf popularity law, rotated by the
// current phase so the hot set drifts as the trace progresses.
func (g *generator) pickTask() int {
	raw := int(g.zipf.Uint64())
	if g.cfg.PhaseEvery > 0 {
		raw += g.opens / g.cfg.PhaseEvery
	}
	return raw % g.cfg.Tasks
}

// churn replaces one non-hub file of the finished task with a brand-new
// path, modelling build outputs and editor temporaries invalidating old
// relationships.
func (g *generator) churn(task int) {
	if g.rng.Float64() >= g.cfg.ChurnProb {
		return
	}
	files := g.tasks[task]
	// Pick a non-hub slot; give up after a few tries if the task is all
	// hubs (cannot happen with the presets, but stay safe).
	for try := 0; try < 4; try++ {
		i := g.rng.Intn(len(files))
		if isSharedPath(files[i].path) {
			continue
		}
		files[i] = slot{path: fmt.Sprintf("/task%04d/gen%07d", task, g.freshN)}
		g.freshN++
		return
	}
}

// noiseFile returns noise file n's id, interning its path on first use.
func (g *generator) noiseFile(n int) trace.FileID {
	if n < len(g.noise) && g.noise[n] != 0 {
		return g.noise[n] - 1
	}
	id := g.tr.Paths.Intern(fmt.Sprintf("/noise/n%05d", n))
	if n < len(g.noise) {
		g.noise[n] = id + 1
	}
	return id
}

// maxGap is the longest gap between two events, in microseconds.
const maxGap = 2000

// gap draws the time before the next event, 1 to maxGap microseconds,
// exactly as time.Duration(1+g.rng.Intn(maxGap))*time.Microsecond would:
// the same draws, the same value. It is math/rand's Int31n with the bound
// a constant, so the two divisions Int31n makes per call compile to
// multiplies; they were a quarter of trace synthesis.
func (g *generator) gap() time.Duration {
	const limit = (1<<31 - 1) - (1<<31)%maxGap // Int31n's rejection bound
	v := g.rng.Int31()
	for v > limit {
		v = g.rng.Int31()
	}
	return time.Duration(1+v%maxGap) * time.Microsecond
}

// emit appends one event for file id, into the room eventBudget reserved.
func (g *generator) emit(c *clientState, op trace.Op, id trace.FileID) {
	g.now += g.gap()
	g.tr.Events = append(g.tr.Events, trace.Event{
		Time:   g.now,
		PID:    c.pid,
		UID:    c.uid,
		File:   id,
		Client: c.id,
		Op:     op,
	})
}

func sharedPath(i int) string { return fmt.Sprintf("/shared/bin%03d", i) }

func isSharedPath(p string) bool {
	return len(p) > 8 && p[:8] == "/shared/"
}
