package workload

import (
	"fmt"
	"math/rand"
	"time"

	"aggcache/internal/trace"
)

// Web workload
//
// The paper's related work (§5) singles out the web-proxy domain —
// Hummingbird groups files by hyperlink structure, Bestavros and Duchamp
// speculate on link traversal. GenerateWeb synthesizes that domain's
// access pattern so grouping can be evaluated on it: *pages* consist of
// an HTML file plus embedded objects (stylesheets, scripts, images) that
// are always fetched right after it, sessions perform random walks over a
// hyperlink graph with Zipf-popular entry pages, and a shared asset pool
// (site-wide CSS/JS) appears across many pages — the web analogue of the
// shell-and-make hub files.
//
// Unlike the file-system generator, relationships here are *structural*
// (a page literally contains its objects), which is precisely the
// information Hummingbird needs to be told and the aggregating cache
// learns on its own.

// WebConfig parameterizes web-trace generation.
type WebConfig struct {
	// Seed makes generation deterministic.
	Seed int64
	// Requests is the number of open events to emit.
	Requests int
	// Pages is the number of distinct pages on the site.
	Pages int
	// ObjectsPerPage is the number of embedded objects per page.
	ObjectsPerPage int
	// SharedAssets is the pool of site-wide assets; each page embeds a
	// couple at fixed slots.
	SharedAssets int
	// Links is the out-degree of the hyperlink graph.
	Links int
	// FollowProb is the chance a session follows a link from the
	// current page rather than jumping to a popular entry page.
	FollowProb float64
	// ZipfS skews entry-page popularity (> 1).
	ZipfS float64
	// Clients is the number of interleaved browsing sessions.
	Clients int
}

func (c WebConfig) withDefaults() WebConfig {
	if c.Requests == 0 {
		c.Requests = 50000
	}
	if c.Pages == 0 {
		c.Pages = 300
	}
	if c.ObjectsPerPage == 0 {
		c.ObjectsPerPage = 6
	}
	if c.SharedAssets == 0 {
		c.SharedAssets = 12
	}
	if c.Links == 0 {
		c.Links = 4
	}
	if c.FollowProb == 0 {
		c.FollowProb = 0.7
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.3
	}
	if c.Clients == 0 {
		c.Clients = 4
	}
	return c
}

func (c WebConfig) validate() error {
	switch {
	case c.Requests < 0:
		return fmt.Errorf("workload: requests must be >= 0, got %d", c.Requests)
	case c.Pages < 1:
		return fmt.Errorf("workload: pages must be >= 1, got %d", c.Pages)
	case c.ObjectsPerPage < 0:
		return fmt.Errorf("workload: objects per page must be >= 0, got %d", c.ObjectsPerPage)
	case c.SharedAssets < 1:
		return fmt.Errorf("workload: shared assets must be >= 1, got %d", c.SharedAssets)
	case c.Links < 1:
		return fmt.Errorf("workload: links must be >= 1, got %d", c.Links)
	case !unit(c.FollowProb):
		return fmt.Errorf("workload: follow probability must be in [0,1], got %v", c.FollowProb)
	case !(c.ZipfS > 1):
		return fmt.Errorf("workload: ZipfS must be > 1, got %v", c.ZipfS)
	case c.Clients < 1:
		return fmt.Errorf("workload: clients must be >= 1, got %d", c.Clients)
	}
	return nil
}

// GenerateWeb synthesizes a web-proxy style trace per cfg.
func GenerateWeb(cfg WebConfig) (*trace.Trace, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Pages-1))

	// Lay out each page's files — its HTML, then its objects, embedding
	// shared assets at two deterministic slots — and its outbound links.
	type page struct {
		files []slot
		links []int
	}
	pages := make([]page, cfg.Pages)
	for i := range pages {
		p := page{files: make([]slot, 1+cfg.ObjectsPerPage), links: make([]int, cfg.Links)}
		p.files[0].path = fmt.Sprintf("/site/page%04d.html", i)
		sharedA := rng.Intn(cfg.SharedAssets)
		sharedB := rng.Intn(cfg.SharedAssets)
		slotA := 0
		slotB := 0
		if cfg.ObjectsPerPage > 0 {
			slotA = rng.Intn(cfg.ObjectsPerPage)
			slotB = rng.Intn(cfg.ObjectsPerPage)
		}
		objects := p.files[1:]
		for j := range objects {
			switch j {
			case slotA:
				objects[j].path = fmt.Sprintf("/assets/shared%03d", sharedA)
			case slotB:
				objects[j].path = fmt.Sprintf("/assets/shared%03d", sharedB)
			default:
				objects[j].path = fmt.Sprintf("/site/page%04d/obj%02d", i, j)
			}
		}
		for j := range p.links {
			p.links[j] = rng.Intn(cfg.Pages)
		}
		pages[i] = p
	}

	type session struct {
		client  uint16
		current int
		started bool
	}
	sessions := make([]*session, cfg.Clients)
	for i := range sessions {
		sessions[i] = &session{client: uint16(i + 1)}
	}

	// Every request is one open event, so the trace's length is known.
	tr := trace.NewTrace()
	tr.Events = make([]trace.Event, 0, cfg.Requests)
	now := time.Duration(0)
	for len(tr.Events) < cfg.Requests {
		s := sessions[rng.Intn(len(sessions))]
		if !s.started || rng.Float64() >= cfg.FollowProb {
			s.current = int(zipf.Uint64())
			s.started = true
		} else {
			links := pages[s.current].links
			s.current = links[rng.Intn(len(links))]
		}
		files := pages[s.current].files
		for i := 0; i < len(files) && len(tr.Events) < cfg.Requests; i++ {
			now += time.Duration(1+rng.Intn(500)) * time.Microsecond
			tr.Events = append(tr.Events, trace.Event{Time: now, File: files[i].file(tr.Paths), Client: s.client, Op: trace.OpOpen})
		}
	}
	return tr, nil
}
