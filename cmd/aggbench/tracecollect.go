package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"time"

	"aggcache/internal/obs/otrace"
)

// stitchedTrace is one fleet-wide trace: every scraped node's spans for
// one trace ID, joined. Parent IDs imply the tree, exactly as in a
// node's own /trace/<id> document.
type stitchedTrace struct {
	TraceID string `json:"trace_id"`
	// Nodes lists the span-recording nodes the trace touched, sorted.
	Nodes []string          `json:"nodes"`
	Spans []otrace.SpanJSON `json:"spans"`
}

// collectTraces is the fleet scraper behind -trace-collect: it unions the
// trace IDs every address lists under /traces, pulls each address's
// /trace/<id> document (404 means the node took no part), joins the
// spans by trace ID, and writes the stitched traces to out as JSON,
// widest — most nodes — first. It fails, after writing, unless some
// trace spans at least minNodes nodes.
func collectTraces(addrs []string, minNodes int, out io.Writer) error {
	if len(addrs) == 0 {
		return fmt.Errorf("trace-collect: no addresses given")
	}
	client := &http.Client{Timeout: 5 * time.Second}
	var ids []string
	seen := make(map[string]bool)
	for _, addr := range addrs {
		var sums []otrace.TraceSummary
		if _, err := getJSON(client, "http://"+addr+"/traces", &sums); err != nil {
			return fmt.Errorf("trace-collect: %w", err)
		}
		for _, s := range sums {
			if !seen[s.TraceID] {
				seen[s.TraceID] = true
				ids = append(ids, s.TraceID)
			}
		}
	}

	traces := make([]stitchedTrace, 0, len(ids))
	for _, id := range ids {
		st := stitchedTrace{TraceID: id}
		nodes := make(map[string]bool)
		for _, addr := range addrs {
			var doc otrace.TraceDoc
			found, err := getJSON(client, "http://"+addr+"/trace/"+id, &doc)
			if err != nil {
				return fmt.Errorf("trace-collect: %w", err)
			}
			if !found {
				continue
			}
			for _, sp := range doc.Spans {
				nodes[sp.Node] = true
			}
			st.Spans = append(st.Spans, doc.Spans...)
		}
		if len(st.Spans) == 0 {
			continue // aged out of every ring between the two scrapes
		}
		for node := range nodes {
			st.Nodes = append(st.Nodes, node)
		}
		sort.Strings(st.Nodes)
		sort.SliceStable(st.Spans, func(i, j int) bool { return st.Spans[i].StartNS < st.Spans[j].StartNS })
		traces = append(traces, st)
	}
	sort.Slice(traces, func(i, j int) bool {
		a, b := traces[i], traces[j]
		if len(a.Nodes) != len(b.Nodes) {
			return len(a.Nodes) > len(b.Nodes)
		}
		if len(a.Spans) != len(b.Spans) {
			return len(a.Spans) > len(b.Spans)
		}
		return a.TraceID < b.TraceID
	})

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(traces); err != nil {
		return err
	}
	widest := 0
	if len(traces) > 0 {
		widest = len(traces[0].Nodes)
	}
	fmt.Fprintf(os.Stderr, "trace-collect: %d traces stitched, widest spans %d nodes\n", len(traces), widest)
	if widest < minNodes {
		return fmt.Errorf("trace-collect: widest trace spans %d nodes, want at least %d", widest, minNodes)
	}
	return nil
}

// getJSON fetches url and decodes its JSON body into v. A 404 reports
// found=false with no error; any other non-200 status is an error.
func getJSON(client *http.Client, url string, v interface{}) (found bool, err error) {
	resp, err := client.Get(url)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return false, nil
	default:
		return false, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return false, fmt.Errorf("GET %s: %w", url, err)
	}
	return true, nil
}
