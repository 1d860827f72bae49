package workload

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"aggcache/internal/core"
	"aggcache/internal/entropy"
	"aggcache/internal/trace"
)

func TestGenerateWebBudgetAndDeterminism(t *testing.T) {
	cfg := WebConfig{Seed: 1, Requests: 5000}
	a, err := GenerateWeb(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(a.OpenIDs()); got != 5000 {
		t.Errorf("requests = %d, want 5000", got)
	}
	b, err := GenerateWeb(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatal("same seed, different lengths")
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
}

func TestGenerateWebValidation(t *testing.T) {
	nan := math.NaN()
	bad := []WebConfig{
		{Requests: -1},
		{Pages: -2},
		{FollowProb: 1.5},
		{ZipfS: 0.9},
		{Clients: -1},
		{Links: -1},
		{ObjectsPerPage: -1},
		{SharedAssets: -1},
		{FollowProb: nan},
		{ZipfS: nan},
	}
	for _, cfg := range bad {
		name := fmt.Sprintf("GenerateWeb(%+v)", cfg)
		if err := returnsWithin(t, name, func() error { _, err := GenerateWeb(cfg); return err }); err == nil {
			t.Errorf("%s succeeded", name)
		}
	}
	tiny := WebConfig{Requests: 100, Pages: 1, SharedAssets: 1, Links: 1}
	if err := returnsWithin(t, "tiny web", func() error { _, err := GenerateWeb(tiny); return err }); err != nil {
		t.Errorf("GenerateWeb(%+v): %v", tiny, err)
	}
}

func TestGenerateWebStructure(t *testing.T) {
	tr, err := GenerateWeb(WebConfig{Seed: 2, Requests: 8000})
	if err != nil {
		t.Fatal(err)
	}
	var pages, objects, shared int
	for i := 0; i < tr.Paths.Len(); i++ {
		p := tr.Paths.Path(trace.FileID(i))
		switch {
		case strings.HasSuffix(p, ".html"):
			pages++
		case strings.HasPrefix(p, "/assets/shared"):
			shared++
		default:
			objects++
		}
	}
	if pages == 0 || objects == 0 || shared == 0 {
		t.Errorf("universe missing a class: pages=%d objects=%d shared=%d", pages, objects, shared)
	}
	// Embedded objects make the stream highly predictable at k=1.
	r, err := entropy.SuccessorEntropy(tr.OpenIDs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("web successor entropy = %.3f bits", r.Bits)
	if r.Bits > 3.5 {
		t.Errorf("web workload entropy %.3f unexpectedly high", r.Bits)
	}
}

// The Hummingbird result, reproduced without hyperlink hints: grouping
// learns the page->objects structure from the access stream alone and
// slashes proxy fetches.
func TestWebGroupingReducesFetches(t *testing.T) {
	tr, err := GenerateWeb(WebConfig{Seed: 3, Requests: 30000})
	if err != nil {
		t.Fatal(err)
	}
	ids := tr.OpenIDs()
	run := func(g int) uint64 {
		c, err := core.New(core.Config{Capacity: 400, GroupSize: g})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			c.Access(id)
		}
		return c.Stats().DemandFetches()
	}
	lru := run(1)
	g7 := run(7)
	reduction := 1 - float64(g7)/float64(lru)
	t.Logf("web fetch reduction: %.1f%% (lru %d -> g7 %d)", 100*reduction, lru, g7)
	if reduction < 0.4 {
		t.Errorf("grouping reduced web fetches only %.1f%%, want >= 40%%", 100*reduction)
	}
}
