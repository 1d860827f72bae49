package cache

import (
	"fmt"
	"reflect"
	"testing"

	"aggcache/internal/trace"
)

type ids = []trace.FileID

// groupStep is one call on a GroupLRU: Install(install, head) when install
// is set — Stage(install, probation) when stage is — and Demand(demand)
// otherwise, with the results it must return.
type groupStep struct {
	install   ids
	head      bool
	stage     bool
	probation int
	admitted  int

	demand           trace.FileID
	hit, speculative bool
}

func demanded(files ...trace.FileID) []groupStep {
	steps := make([]groupStep, len(files))
	for i, id := range files {
		steps[i] = groupStep{install: ids{id}}
	}
	return steps
}

func TestGroupLRU(t *testing.T) {
	cases := []struct {
		name      string
		capacity  int
		steps     []groupStep
		resident  ids      // MRU first
		probation ids      // the probation list, most recent first
		evicted   []string // "id" or "id*" (still speculative), in order
	}{
		{
			name:     "members go to the tail in rank order",
			capacity: 5,
			steps:    append(demanded(1, 2), groupStep{install: ids{3, 4, 5}, admitted: 2}),
			resident: ids{3, 2, 1, 4, 5},
		},
		{
			name:     "head placement puts members above confirmed residents",
			capacity: 5,
			steps:    append(demanded(1, 2), groupStep{install: ids{3, 4, 5}, head: true, admitted: 2}),
			resident: ids{5, 4, 3, 2, 1},
		},
		{
			name:     "the group is protected and its tail truncated",
			capacity: 3,
			steps:    append(demanded(1, 2, 3), groupStep{install: ids{4, 5, 6, 7}, admitted: 2}),
			resident: ids{4, 5, 6},
			evicted:  []string{"1", "2", "3"},
		},
		{
			name:     "a resident member keeps its place and is never the victim",
			capacity: 3,
			steps:    append(demanded(1, 2, 3), groupStep{install: ids{4, 1, 5}, admitted: 1}),
			resident: ids{4, 1, 5},
			evicted:  []string{"2", "3"},
		},
		{
			name:     "tiny cache: only group files resident, the demanded file still enters",
			capacity: 2,
			steps:    append(demanded(1, 2), groupStep{install: ids{3, 1, 2}, admitted: 0}),
			resident: ids{3, 2},
			evicted:  []string{"1"},
		},
		{
			name:     "speculative until demanded, reported on eviction",
			capacity: 3,
			steps: []groupStep{
				{install: ids{1, 2, 3}, admitted: 2},
				{demand: 9},
				{demand: 2, hit: true, speculative: true},
				{demand: 2, hit: true},
				{install: ids{4}}, // evicts 3, never demanded
				{install: ids{5}}, // evicts 1, demanded on arrival
				{install: ids{6}}, // evicts 2, demanded since
			},
			resident: ids{6, 5, 4},
			evicted:  []string{"3*", "1", "2"},
		},
		{
			name:     "installing a speculative member as the demanded file confirms it",
			capacity: 2,
			steps: []groupStep{
				{install: ids{1, 2}, admitted: 1},
				{install: ids{2}},
				{demand: 2, hit: true},
			},
			resident: ids{2, 1},
		},
		{
			// The raced double miss: the second install of the same group
			// finds everything resident and must leave the rest alone.
			name:     "a resident demanded file on a full set evicts nothing",
			capacity: 3,
			steps:    append(demanded(1, 2, 3), groupStep{install: ids{2, 3}, admitted: 0}),
			resident: ids{2, 3, 1},
		},
		{
			name:     "a resident demanded file admits only non-resident members",
			capacity: 3,
			steps:    append(demanded(1, 2, 3), groupStep{install: ids{2, 1, 9}, admitted: 1}),
			resident: ids{2, 1, 9},
			evicted:  []string{"3"},
		},
		{
			name:      "staged members wait on probation, the first successor most recent",
			capacity:  6,
			steps:     append(demanded(1, 2), groupStep{install: ids{3, 4, 5}, stage: true, probation: 3, admitted: 2}),
			resident:  ids{3, 2, 1},
			probation: ids{4, 5},
		},
		{
			name:     "probation at its bound gives the victim, below it the LRU tail does",
			capacity: 5,
			steps: append(demanded(1, 2),
				groupStep{install: ids{3, 4, 5}, stage: true, probation: 2, admitted: 2},
				groupStep{install: ids{6, 7, 8}, stage: true, probation: 2, admitted: 2}),
			resident:  ids{6, 3, 2},
			probation: ids{7, 8},
			evicted:   []string{"5*", "1", "4*"},
		},
		{
			name:     "a demand takes a probation file to the head as a speculative hit",
			capacity: 6,
			steps: append(demanded(1, 2),
				groupStep{install: ids{3, 4, 5}, stage: true, probation: 3, admitted: 2},
				groupStep{demand: 5, hit: true, speculative: true},
				groupStep{demand: 5, hit: true}),
			resident:  ids{5, 3, 2, 1},
			probation: ids{4},
		},
		{
			name:     "a staged group's resident members stay put and are never the victim",
			capacity: 4,
			steps: append(demanded(1, 2),
				groupStep{install: ids{3, 4}, stage: true, probation: 1, admitted: 1},
				groupStep{install: ids{5, 4, 6}, stage: true, probation: 1, admitted: 1}),
			resident:  ids{5, 3},
			probation: ids{6, 4},
			evicted:   []string{"1", "2"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := NewGroupLRU(tc.capacity)
			if err != nil {
				t.Fatal(err)
			}
			var evicted []string
			g.OnEvict(func(id trace.FileID, speculative bool) {
				s := fmt.Sprint(id)
				if speculative {
					s += "*"
				}
				evicted = append(evicted, s)
			})
			for i, st := range tc.steps {
				if st.stage {
					if got := g.Stage(st.install, st.probation); got != st.admitted {
						t.Errorf("step %d: Stage(%v, %d) admitted %d, want %d", i, st.install, st.probation, got, st.admitted)
					}
					continue
				}
				if st.install != nil {
					if got := g.Install(st.install, st.head); got != st.admitted {
						t.Errorf("step %d: Install(%v) admitted %d, want %d", i, st.install, got, st.admitted)
					}
					continue
				}
				hit, speculative := g.Demand(st.demand)
				if hit != st.hit || speculative != st.speculative {
					t.Errorf("step %d: Demand(%d) = %v,%v want %v,%v", i, st.demand, hit, speculative, st.hit, st.speculative)
				}
			}
			if got := g.lru.resident(); !reflect.DeepEqual(got, tc.resident) {
				t.Errorf("resident = %v, want %v", got, tc.resident)
			}
			var probation ids
			for _, e := range probationEntries(g) {
				probation = append(probation, e.id)
			}
			if !reflect.DeepEqual(probation, tc.probation) {
				t.Errorf("probation = %v, want %v", probation, tc.probation)
			}
			if !reflect.DeepEqual(evicted, tc.evicted) {
				t.Errorf("evicted = %v, want %v", evicted, tc.evicted)
			}
			if n := len(tc.resident) + len(tc.probation); g.Len() != n || g.Cap() != tc.capacity || g.Evictions() != uint64(len(tc.evicted)) {
				t.Errorf("Len/Cap/Evictions = %d/%d/%d, want %d/%d/%d",
					g.Len(), g.Cap(), g.Evictions(), n, tc.capacity, len(tc.evicted))
			}
			for _, id := range append(tc.resident, tc.probation...) {
				if !g.Contains(id) {
					t.Errorf("Contains(%d) = false for a resident", id)
				}
			}
		})
	}
}

func TestNewGroupLRURejectsBadCapacity(t *testing.T) {
	if _, err := NewGroupLRU(0); err == nil {
		t.Error("NewGroupLRU(0) succeeded")
	}
}
