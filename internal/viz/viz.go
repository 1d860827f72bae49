// Package viz turns successor-entropy analysis into workload reports —
// the direction the paper's §6 sketches ("extending successor entropy for
// use as part of a more general purpose visualization tool for I/O
// workloads", Luo et al. 2001). It profiles the predictability of
// individual files and of the workload over time, and renders both as
// plain text or self-contained SVG, standard library only.
package viz

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"aggcache/internal/entropy"
	"aggcache/internal/trace"
)

// FileEntry describes one file's predictability.
type FileEntry struct {
	ID   trace.FileID
	Path string
	// Accesses is the file's open count.
	Accesses int
	// Successors is the number of distinct immediate successors
	// observed after it.
	Successors int
	// Entropy is the file's conditional successor entropy in bits
	// (0 = perfectly predictable).
	Entropy float64
}

// Profile computes per-file successor statistics for the topN most
// accessed files (all files if topN <= 0), ordered by access count
// descending, id ascending on ties. Successors and Entropy come from
// entropy.PerFile.
func Profile(t *trace.Trace, topN int) []FileEntry {
	ids := t.OpenIDs()
	// byID is indexed by FileID until the unopened ids are dropped.
	var byID []FileEntry
	for _, id := range ids {
		for int(id) >= len(byID) {
			byID = append(byID, FileEntry{ID: trace.FileID(len(byID))})
		}
		byID[id].Accesses++
	}
	entropy.PerFile(ids, func(f trace.FileID, successors int, bits float64) {
		byID[f].Successors = successors
		byID[f].Entropy = bits
	})

	entries := byID[:0]
	for _, e := range byID {
		if e.Accesses > 0 {
			e.Path = t.Paths.Path(e.ID)
			entries = append(entries, e)
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Accesses != entries[j].Accesses {
			return entries[i].Accesses > entries[j].Accesses
		}
		return entries[i].ID < entries[j].ID
	})
	if topN > 0 && len(entries) > topN {
		entries = entries[:topN]
	}
	return entries
}

// WriteReport renders a per-file profile as aligned text.
func WriteReport(w io.Writer, entries []FileEntry) error {
	if _, err := fmt.Fprintf(w, "%-40s %9s %11s %9s\n", "file", "accesses", "successors", "entropy"); err != nil {
		return err
	}
	for _, e := range entries {
		path := e.Path
		if path == "" {
			path = fmt.Sprintf("f%d", e.ID)
		}
		if len(path) > 40 {
			path = "..." + path[len(path)-37:]
		}
		if _, err := fmt.Fprintf(w, "%-40s %9d %11d %9.3f\n", path, e.Accesses, e.Successors, e.Entropy); err != nil {
			return err
		}
	}
	return nil
}

// Window is one time slice of the workload's predictability.
type Window struct {
	// Start is the index of the first open in the window.
	Start int
	// Bits is the successor entropy (k=1) of the window's opens.
	Bits float64
}

// Windows slices the open sequence into consecutive windows of size
// windowLen and computes each window's successor entropy — the workload's
// predictability over time.
func Windows(ids []trace.FileID, windowLen int) ([]Window, error) {
	if windowLen < 2 {
		return nil, fmt.Errorf("viz: window length must be >= 2, got %d", windowLen)
	}
	var out []Window
	for start := 0; start+windowLen <= len(ids); start += windowLen {
		r, err := entropy.SuccessorEntropy(ids[start:start+windowLen], 1)
		if err != nil {
			return nil, err
		}
		out = append(out, Window{Start: start, Bits: r.Bits})
	}
	return out, nil
}

// SVG rendering. The charts are deliberately minimal: fixed layout,
// no external assets, valid standalone SVG 1.1.

const (
	svgBarHeight  = 18
	svgBarGap     = 4
	svgLabelWidth = 320
	svgPlotWidth  = 420
	svgMargin     = 10
)

// WriteBarsSVG renders a per-file profile as a horizontal bar chart of
// entropy, annotated with access counts.
func WriteBarsSVG(w io.Writer, entries []FileEntry) error {
	height := svgMargin*2 + len(entries)*(svgBarHeight+svgBarGap)
	width := svgMargin*2 + svgLabelWidth + svgPlotWidth
	maxBits := 0.0
	for _, e := range entries {
		if e.Entropy > maxBits {
			maxBits = e.Entropy
		}
	}
	if maxBits == 0 {
		maxBits = 1
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="12">`+"\n", width, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	y := svgMargin
	for _, e := range entries {
		path := e.Path
		if path == "" {
			path = fmt.Sprintf("f%d", e.ID)
		}
		barLen := int(float64(svgPlotWidth) * e.Entropy / maxBits)
		fmt.Fprintf(&b, `<text x="%d" y="%d">%s</text>`+"\n",
			svgMargin, y+svgBarHeight-5, svgEscape(truncate(path, 36)))
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="#4477aa"/>`+"\n",
			svgMargin+svgLabelWidth, y, barLen, svgBarHeight)
		fmt.Fprintf(&b, `<text x="%d" y="%d" fill="#333">%.2f bits / %d opens</text>`+"\n",
			svgMargin+svgLabelWidth+barLen+4, y+svgBarHeight-5, e.Entropy, e.Accesses)
		y += svgBarHeight + svgBarGap
	}
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteTimelineSVG renders per-window entropy as a polyline sparkline.
func WriteTimelineSVG(w io.Writer, windows []Window) error {
	const (
		plotW = 640
		plotH = 160
	)
	width := plotW + 2*svgMargin
	height := plotH + 2*svgMargin
	maxBits := 0.0
	for _, win := range windows {
		if win.Bits > maxBits {
			maxBits = win.Bits
		}
	}
	if maxBits == 0 {
		maxBits = 1
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="11">`+"\n", width, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="#999"/>`+"\n",
		svgMargin, svgMargin, plotW, plotH)
	if len(windows) > 0 {
		var pts []string
		for i, win := range windows {
			x := svgMargin
			if len(windows) > 1 {
				x += i * plotW / (len(windows) - 1)
			}
			y := svgMargin + plotH - int(float64(plotH)*win.Bits/maxBits)
			pts = append(pts, fmt.Sprintf("%d,%d", x, y))
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="#4477aa" stroke-width="2"/>`+"\n",
			strings.Join(pts, " "))
	}
	fmt.Fprintf(&b, `<text x="%d" y="%d">successor entropy over time (max %.2f bits)</text>`+"\n",
		svgMargin+4, svgMargin+14, maxBits)
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return "..." + s[len(s)-n+3:]
}

func svgEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
