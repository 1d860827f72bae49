package core

import (
	"strings"
	"testing"

	"aggcache/internal/obs"
	"aggcache/internal/trace"
)

// TestObsCountersMirrorStats drives an instrumented cache through hits,
// misses, prefetch hits, evictions and loads of staged members, and
// checks that the exported counters agree with Stats and the group-size
// histogram fills.
func TestObsCountersMirrorStats(t *testing.T) {
	reg := obs.NewRegistry()
	c := mustNew(t, Config{Capacity: 3, GroupSize: 2, Obs: reg})

	// Teach 1 → 2, flush the cache with cold misses (evictions), then a
	// miss on 1 prefetches 2 and the following access is a prefetch hit.
	for i := 0; i < 4; i++ {
		c.Access(trace.FileID(1))
		c.Access(trace.FileID(2))
	}
	for id := trace.FileID(10); id < 16; id++ {
		c.Access(id)
	}
	c.Access(trace.FileID(1)) // miss: stages group {1, 2}
	c.Access(trace.FileID(2)) // prefetch hit

	st := c.Stats()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	parsed, err := obs.ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, sb.String())
	}
	counters := map[string]uint64{
		"core_cache_hits_total":          st.Hits,
		"core_cache_misses_total":        st.Misses,
		"core_cache_prefetch_hits_total": st.PrefetchHits,
		"core_cache_evictions_total":     st.Evictions,
		"core_cache_loads_total":         st.Loads,
	}
	for name, want := range counters {
		s, ok := parsed.Find(name, nil)
		if !ok || uint64(s.Value) != want {
			t.Errorf("%s = %+v (found %v), want %d", name, s, ok, want)
		}
	}
	if st.PrefetchHits == 0 || st.Evictions == 0 || st.Loads <= st.GroupFetches {
		t.Fatalf("workload did not exercise prefetch hits / evictions / member loads: %+v", st)
	}
	if s, ok := parsed.Find("core_group_size_count", nil); !ok || uint64(s.Value) != st.GroupFetches {
		t.Fatalf("group-size histogram count = %+v (found %v), want %d", s, ok, st.GroupFetches)
	}
	if s, ok := parsed.Find("core_group_size_sum", nil); !ok || uint64(s.Value) != st.FilesFetched {
		t.Fatalf("group-size histogram sum = %+v (found %v), want %d", s, ok, st.FilesFetched)
	}
}

// TestNoRegistryNoMetrics makes sure the uninstrumented cache works
// exactly as before (nil instruments no-op).
func TestNoRegistryNoMetrics(t *testing.T) {
	c := mustNew(t, Config{Capacity: 4, GroupSize: 2})
	c.Access(trace.FileID(1))
	c.Access(trace.FileID(1))
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats without registry = %+v", st)
	}
}
