package aggcache

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"aggcache/internal/cluster"
	"aggcache/internal/fsnet"
	"aggcache/internal/gossip"
	"aggcache/internal/obs"
)

// The documents whose test, benchmark and BENCH_PR<n>.json citations are
// checked.
var citingDocs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

// The Markdown files at the root whose "DESIGN.md §N" references are checked.
var maintainedDocs = map[string]bool{
	"DESIGN.md": true, "README.md": true, "EXPERIMENTS.md": true, "ROADMAP.md": true,
}

var (
	testFuncRE  = regexp.MustCompile(`(?m)^func (?:\([^)]*\) )?((?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*)\(`)
	testCiteRE  = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	benchFileRE = regexp.MustCompile(`\bBENCH_PR\d+\.json\b`)
	sectionRE   = regexp.MustCompile(`(?m)^## (\d+)\. `)
	// An explicit reference, "DESIGN.md §4", with the bare sections that
	// follow it in a list ("DESIGN.md §4, §5" or "DESIGN.md §4/§5"). A
	// comment may break the line between the file name and the section.
	designRefRE = regexp.MustCompile(`DESIGN\.md[\s/#]*§(\d+)((?:\s*(?:,|/|and)\s*§\d+)*)`)
	bareRefRE   = regexp.MustCompile(`§(\d+)`)
)

// TestDocsCiteWhatExists keeps the documents' cross-references true: every
// test, benchmark or fuzz target DESIGN.md, README.md and EXPERIMENTS.md
// name is a func in some _test.go of the tree (or a prefix of one, as in
// TestAllocBudget*), every BENCH_PR<n>.json they cite is committed, and
// every explicit "DESIGN.md §N" in Go source, the Makefile and the
// Markdown files names a section DESIGN.md has. Of the Markdown files at the
// root only the maintained documents are read; the others keep history or
// quote outside text.
func TestDocsCiteWhatExists(t *testing.T) {
	var funcs []string
	sections := map[string]bool{}
	if b, err := os.ReadFile("DESIGN.md"); err != nil {
		t.Fatal(err)
	} else {
		for _, m := range sectionRE.FindAllStringSubmatch(string(b), -1) {
			sections[m[1]] = true
		}
	}
	if len(sections) == 0 {
		t.Fatal("DESIGN.md has no numbered sections")
	}

	// benchmark/ changes only with the benchmark, so its references are
	// not checked, but its tests may be cited.
	var refFiles []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if err == nil && path == ".git" {
				return filepath.SkipDir
			}
			return err
		}
		name := d.Name()
		if strings.HasSuffix(name, "_test.go") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range testFuncRE.FindAllStringSubmatch(string(b), -1) {
				funcs = append(funcs, m[1])
			}
		}
		skip := strings.HasPrefix(path, "benchmark"+string(filepath.Separator)) ||
			(path == name && strings.HasSuffix(name, ".md") && !maintainedDocs[name])
		if !skip && (strings.HasSuffix(name, ".go") || strings.HasSuffix(name, ".md") || name == "Makefile") {
			refFiles = append(refFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(funcs)

	exists := func(cited string) bool {
		i := sort.SearchStrings(funcs, cited)
		return i < len(funcs) && strings.HasPrefix(funcs[i], cited)
	}
	for _, doc := range citingDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		forEachLine(b, func(n int, line string) {
			for _, name := range testCiteRE.FindAllString(line, -1) {
				if !exists(name) {
					t.Errorf("%s:%d cites %s, which no _test.go defines", doc, n, name)
				}
			}
			for _, f := range benchFileRE.FindAllString(line, -1) {
				if _, err := os.Stat(f); err != nil {
					t.Errorf("%s:%d cites %s, which is not committed", doc, n, f)
				}
			}
		})
	}

	for _, path := range refFiles {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		text := string(b)
		for _, m := range designRefRE.FindAllStringSubmatchIndex(text, -1) {
			line := 1 + strings.Count(text[:m[0]], "\n")
			for _, s := range bareRefRE.FindAllStringSubmatch(text[m[0]:m[1]], -1) {
				if !sections[s[1]] {
					t.Errorf("%s:%d cites DESIGN.md §%s, which DESIGN.md does not have", path, line, s[1])
				}
			}
		}
	}
}

func forEachLine(b []byte, fn func(n int, line string)) {
	for i, line := range strings.Split(string(b), "\n") {
		fn(i+1, line)
	}
}

// catalogueRowRE reads a catalogue row's series: the first code span of
// its first cell, a full series name with an optional label set.
var catalogueRowRE = regexp.MustCompile("^\\|\\s*`([a-z_][a-z0-9_]*)(\\{[^}`]*\\})?`")

// TestMetricCatalogueMatchesRegistry holds DESIGN.md's metric catalogue to
// the series the components register. It wires them onto one registry as
// cmd/aggserve does — a server with a membership view, a cluster node with
// two peers and its gossiper — plus a client, and requires every
// registered family to have a catalogue row and every row to name a
// registered family.
func TestMetricCatalogueMatchesRegistry(t *testing.T) {
	documented := catalogueSeries(t)

	reg := obs.NewRegistry()
	peers := []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"}
	node, err := cluster.NewNode(cluster.Config{Self: peers[0], Peers: peers, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	gsp := gossip.New(gossip.Config{Node: node, Obs: reg})
	gsp.Start()
	defer gsp.Stop()
	srv, err := fsnet.NewServer(fsnet.NewStore(), fsnet.ServerConfig{Obs: reg, Views: node})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := fsnet.NewClient(nil, fsnet.ClientConfig{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	registered := map[string]bool{}
	for _, s := range reg.Snapshot() {
		registered[s.Name] = true
	}
	for name := range registered {
		if !documented[name] {
			t.Errorf("series %s is registered but has no row in DESIGN.md's metric catalogue", name)
		}
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("DESIGN.md's metric catalogue lists %s, which nothing registers", name)
		}
	}
}

// catalogueSeries returns the series of the table under DESIGN.md's
// "### Metric catalogue" heading, one per row.
func catalogueSeries(t *testing.T) map[string]bool {
	t.Helper()
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	series := map[string]bool{}
	in, table := false, false
	forEachLine(b, func(n int, line string) {
		switch {
		case strings.HasPrefix(line, "#"):
			in = line == "### Metric catalogue"
			table = false
		case !in:
		case strings.HasPrefix(line, "|"):
			table = true
			if strings.HasPrefix(line, "|---") || strings.HasPrefix(line, "| ---") || strings.HasPrefix(line, "| Series") {
				return
			}
			m := catalogueRowRE.FindStringSubmatch(line)
			if m == nil {
				t.Errorf("DESIGN.md:%d: catalogue row names no series: %s", n, line)
				return
			}
			if series[m[1]] {
				t.Errorf("DESIGN.md:%d: %s has a second catalogue row", n, m[1])
			}
			series[m[1]] = true
		case table:
			in = false
		}
	})
	if len(series) == 0 {
		t.Fatal(`DESIGN.md has no "### Metric catalogue" table`)
	}
	return series
}
