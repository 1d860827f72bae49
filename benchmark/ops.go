package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"

	"aggcache/internal/trace"
	"aggcache/internal/workload"
)

// op is one call a worker makes, Client.Open or Client.Write of one file:
// the file's index, with the top bit set for a write. Four bytes each, because
// a run's stream is tens of millions of them.
type op uint32

const opWrite op = 1 << 31

func (o op) file() int   { return int(o &^ opWrite) }
func (o op) write() bool { return o&opWrite != 0 }

// opStream is everything the program under test is given: the file set and,
// per worker, the sequence of calls. It is generated from the seed alone.
type opStream struct {
	paths  []string
	sizes  []int32
	hashes []uint64
	// gens[i] is the newest write generation any worker has started on
	// file i; checkContent accepts nothing newer.
	gens []atomic.Uint32
	// workers[w] is what worker w runs, once, front to back: its first
	// fifth is the warm-up, the rest the measured phase.
	workers [][]op
	// ids is the head of the merged open sequence, the key stream of the
	// layer replays.
	ids []trace.FileID
	// generateNsPerEvent is what workload.Generate took, per event.
	generateNsPerEvent float64
}

// maxReplayIDs bounds opStream.ids; a layer replay cycles over them.
const maxReplayIDs = 1 << 20

type streamSpec struct {
	profile workload.Profile
	// stripWrites drops the trace's write events (read-only workloads).
	stripWrites bool
	// sizeLo..sizeHi bound the log-uniform file sizes in bytes.
	sizeLo, sizeHi int
}

// buildStream generates about ops operations of the profile. A profile with
// at least as many clients as there are workers gives one trace, whose client
// c drives worker c mod workers, so one worker replays a fixed set of users in
// trace order. A profile with fewer (server: one machine) gives every worker a
// trace of its own, from its own seed and under its own directory, generated
// one after the other so that each grows into the memory the last one left:
// page faults are what generating tens of millions of events costs on the
// reference box. The stream is as long as the whole run, so no worker ever
// wraps around and meets its own cached past.
func buildStream(spec streamSpec, seed int64, workers, ops int) (*opStream, error) {
	cfg, err := workload.ProfileConfig(spec.profile, seed, 0)
	if err != nil {
		return nil, err
	}
	opens := ops
	if !spec.stripWrites {
		// Each open is followed by a write with this probability.
		opens = int(float64(ops) / (1 + cfg.WriteFraction))
	}
	s := &opStream{workers: make([][]op, workers)}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed5eed))
	lnLo, lnHi := math.Log(float64(spec.sizeLo)), math.Log(float64(spec.sizeHi))
	var genNs int64
	var events int
	// add generates one trace and appends its files, under dir, and its
	// events, to the worker workerOf names.
	add := func(cfg workload.Config, dir string, workerOf func(trace.Event) int) error {
		start := nowNs()
		tr, err := workload.Generate(cfg)
		if err != nil {
			return err
		}
		genNs += nowNs() - start
		events += len(tr.Events)
		base := len(s.paths)
		for i := 0; i < tr.Paths.Len(); i++ {
			p := dir + tr.Paths.Path(trace.FileID(i))
			s.paths = append(s.paths, p)
			s.hashes = append(s.hashes, pathHash(p))
			s.sizes = append(s.sizes, int32(math.Exp(lnLo+rng.Float64()*(lnHi-lnLo))))
		}
		for _, ev := range tr.Events {
			o := op(base) + op(ev.File)
			switch ev.Op {
			case trace.OpOpen:
				if len(s.ids) < maxReplayIDs {
					s.ids = append(s.ids, trace.FileID(o))
				}
			case trace.OpWrite:
				if spec.stripWrites {
					continue
				}
				o |= opWrite
			default:
				continue
			}
			w := workerOf(ev)
			s.workers[w] = append(s.workers[w], o)
		}
		return nil
	}
	if cfg.Clients >= workers {
		cfg.Opens = opens
		err = add(cfg, "", func(ev trace.Event) int { return int(ev.Client) % workers })
	} else {
		cfg.Opens = opens / workers
		for w := 0; w < workers && err == nil; w++ {
			cfg.Seed = seed*int64(workers) + int64(w)
			err = add(cfg, fmt.Sprintf("/w%d", w), func(trace.Event) int { return w })
			runtime.GC()
		}
	}
	if err != nil {
		return nil, err
	}
	s.gens = make([]atomic.Uint32, len(s.paths))
	s.generateNsPerEvent = float64(genNs) / float64(events)
	for w, ops := range s.workers {
		if len(ops) == 0 {
			return nil, fmt.Errorf("worker %d has no operations", w)
		}
	}
	return s, nil
}

// hash digests the whole stream (paths, sizes, per-worker op order), so tests
// can tell that a seed fixes the inputs and another seed changes them.
func (s *opStream) hash() uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i, p := range s.paths {
		h.Write([]byte(p))
		binary.LittleEndian.PutUint64(b[:], uint64(s.sizes[i]))
		h.Write(b[:])
	}
	for _, ops := range s.workers {
		for _, o := range ops {
			binary.LittleEndian.PutUint32(b[:4], uint32(o))
			h.Write(b[:4])
		}
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}
