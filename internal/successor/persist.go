package successor

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"aggcache/internal/trace"
)

// Metadata persistence
//
// The paper contrasts the aggregating cache with Bestavros' speculation
// work partly through "the non-volatile maintenance of relationship
// information at the server": the successor lists are cheap enough to
// keep durably, so a restarted server resumes with everything it learned.
// Save/LoadTracker implement that with a compact versioned binary format.

var persistMagic = [4]byte{'A', 'G', 'S', 'M'}

const persistVersion = 1

// maxSnapshotID bounds file ids accepted from snapshots: the tracker's
// per-file tables are dense, and so is the group builder's seen-table, so
// an absurd id would otherwise translate directly into an absurd
// allocation.
const maxSnapshotID = 1 << 28

// ErrBadMetadata is returned by LoadTracker when the input is not a
// metadata snapshot.
var ErrBadMetadata = errors.New("successor: bad metadata snapshot")

// Save writes a snapshot of the tracker's state (configuration, access
// counts, successor lists, and the predecessor context).
func (t *Tracker) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(persistMagic[:]); err != nil {
		return err
	}
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		n := binary.PutUvarint(tmp[:], v)
		_, err := bw.Write(tmp[:n])
		return err
	}
	putStr := func(s string) error {
		if err := put(uint64(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}

	if err := put(persistVersion); err != nil {
		return err
	}
	if err := putStr(string(t.policy)); err != nil {
		return err
	}
	if err := put(uint64(t.capacity)); err != nil {
		return err
	}
	if err := put(math.Float64bits(t.lambda)); err != nil {
		return err
	}
	if err := put(t.observed); err != nil {
		return err
	}
	hasPrev := uint64(0)
	if t.hasPrev {
		hasPrev = 1
	}
	if err := put(hasPrev); err != nil {
		return err
	}
	if err := put(uint64(t.prev)); err != nil {
		return err
	}

	// The dense tables may have zero/nil slots; only materialized entries
	// are persisted, in ascending id order (the format permits any order,
	// so snapshots are now byte-deterministic as a bonus).
	var nCounts uint64
	for _, n := range t.counts {
		if n != 0 {
			nCounts++
		}
	}
	if err := put(nCounts); err != nil {
		return err
	}
	for id, n := range t.counts {
		if n == 0 {
			continue
		}
		if err := put(uint64(id)); err != nil {
			return err
		}
		if err := put(n); err != nil {
			return err
		}
	}

	if err := put(uint64(t.tracked)); err != nil {
		return err
	}
	for id, l := range t.lists {
		if l == nil {
			continue
		}
		if err := put(uint64(id)); err != nil {
			return err
		}
		if err := put(l.clock); err != nil {
			return err
		}
		if err := put(uint64(len(l.entries))); err != nil {
			return err
		}
		for _, e := range l.entries {
			if err := put(uint64(e.id)); err != nil {
				return err
			}
			if err := put(e.count); err != nil {
				return err
			}
			if err := put(math.Float64bits(e.weight)); err != nil {
				return err
			}
			if err := put(e.tick); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// LoadTracker restores a tracker from a snapshot written by Save. files is
// the size of the caller's file-id space: a snapshot that names an id at
// or past it, or past the format's own bound, fails with ErrBadMetadata
// before the id sizes anything. Pass math.MaxInt for the format's bound
// alone.
func LoadTracker(r io.Reader, files int) (*Tracker, error) {
	limit := uint64(min(max(files, 0), maxSnapshotID+1))
	checkID := func(what string, id uint64) error {
		if id >= limit {
			return fmt.Errorf("%w: %s file id %d out of range", ErrBadMetadata, what, id)
		}
		return nil
	}
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("successor: read magic: %w", err)
	}
	if magic != persistMagic {
		return nil, ErrBadMetadata
	}
	get := func() (uint64, error) { return binary.ReadUvarint(br) }
	getStr := func(limit int) (string, error) {
		n, err := get()
		if err != nil {
			return "", err
		}
		if n > uint64(limit) {
			return "", fmt.Errorf("successor: string of %d bytes exceeds limit", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}

	version, err := get()
	if err != nil {
		return nil, err
	}
	if version != persistVersion {
		return nil, fmt.Errorf("successor: unsupported snapshot version %d", version)
	}
	policyStr, err := getStr(32)
	if err != nil {
		return nil, err
	}
	capacityRaw, err := get()
	if err != nil {
		return nil, err
	}
	if capacityRaw > 1<<20 {
		return nil, fmt.Errorf("successor: capacity %d out of range", capacityRaw)
	}
	lambdaBits, err := get()
	if err != nil {
		return nil, err
	}

	policy := Policy(policyStr)
	lambda := math.Float64frombits(lambdaBits)
	var t *Tracker
	if policy == PolicyDecay {
		t, err = NewDecayTracker(int(capacityRaw), lambda)
	} else {
		t, err = NewTracker(policy, int(capacityRaw))
	}
	if err != nil {
		return nil, fmt.Errorf("successor: snapshot configuration: %w", err)
	}

	if t.observed, err = get(); err != nil {
		return nil, err
	}
	hasPrev, err := get()
	if err != nil {
		return nil, err
	}
	t.hasPrev = hasPrev == 1
	prev, err := get()
	if err != nil {
		return nil, err
	}
	// Without hasPrev the context is never read, and a fresh tracker's is
	// id 0 even when the caller's id space is empty.
	if t.hasPrev || prev != 0 {
		if err := checkID("predecessor", prev); err != nil {
			return nil, err
		}
	}
	t.prev = trace.FileID(prev)

	nCounts, err := get()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nCounts; i++ {
		id, err := get()
		if err != nil {
			return nil, err
		}
		n, err := get()
		if err != nil {
			return nil, err
		}
		if err := checkID("count", id); err != nil {
			return nil, err
		}
		if int(id) >= len(t.counts) {
			t.counts = trace.GrowDense(t.counts, trace.FileID(id))
		}
		t.counts[trace.FileID(id)] = n
	}

	nLists, err := get()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nLists; i++ {
		owner, err := get()
		if err != nil {
			return nil, err
		}
		if err := checkID("list owner", owner); err != nil {
			return nil, err
		}
		l := t.listFor(trace.FileID(owner))
		if l.clock, err = get(); err != nil {
			return nil, err
		}
		nEntries, err := get()
		if err != nil {
			return nil, err
		}
		if t.capacity > 0 && nEntries > uint64(t.capacity) && policy != PolicyOracle {
			return nil, fmt.Errorf("successor: list for %d has %d entries, capacity %d",
				owner, nEntries, t.capacity)
		}
		// Entries land in the tracker's arena by the live growth rule, so a
		// loaded list is laid out as if it had been learned, and a bogus
		// count fails at the end of the input instead of sizing a block.
		l.entries = l.entries[:0]
		for j := uint64(0); j < nEntries; j++ {
			var e entry
			id, err := get()
			if err != nil {
				return nil, err
			}
			if err := checkID("successor", id); err != nil {
				return nil, err
			}
			e.id = trace.FileID(id)
			if e.count, err = get(); err != nil {
				return nil, err
			}
			wbits, err := get()
			if err != nil {
				return nil, err
			}
			e.weight = math.Float64frombits(wbits)
			if e.tick, err = get(); err != nil {
				return nil, err
			}
			l.room()
			l.entries = append(l.entries, e)
		}
	}
	return t, nil
}
