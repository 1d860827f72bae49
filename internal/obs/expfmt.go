package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParsedSample is one sample line of a Prometheus text exposition.
type ParsedSample struct {
	Name   string
	Labels map[string]string
	Value  float64
	// Exemplar is the sample's OpenMetrics exemplar, if the line
	// carried one (` # {labels} value [timestamp]` after the value).
	Exemplar *ParsedExemplar
}

// ParsedExemplar is one sample's exemplar annotation.
type ParsedExemplar struct {
	Labels map[string]string
	Value  float64
}

// ParsedExposition is the outcome of parsing a text exposition.
type ParsedExposition struct {
	// Samples holds every sample line in document order.
	Samples []ParsedSample
	// Types maps family name to its declared # TYPE.
	Types map[string]string
}

// Find returns the first sample with the given name whose labels are a
// superset of want (nil matches anything), and whether one exists.
func (p *ParsedExposition) Find(name string, want map[string]string) (ParsedSample, bool) {
	for _, s := range p.Samples {
		if s.Name != name {
			continue
		}
		ok := true
		for k, v := range want {
			if s.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			return s, true
		}
	}
	return ParsedSample{}, false
}

// ParseExposition validates and parses a Prometheus text-format (0.0.4)
// exposition: # HELP / # TYPE comments, then `name{labels} value` sample
// lines. It enforces the invariants a scraper relies on — valid metric
// and label names, a known TYPE for every declared family, parseable
// values, samples of a typed family appearing after its TYPE line, and
// for histograms a _count equal to the +Inf bucket. It exists so tests
// (and `make fleet-smoke`) can assert that what /metrics serves
// is genuinely scrapeable, not merely non-empty.
func ParseExposition(r io.Reader) (*ParsedExposition, error) {
	out := &ParsedExposition{Types: make(map[string]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	infBucket := make(map[string]float64) // histogram base name -> summed +Inf buckets
	counts := make(map[string]float64)    // histogram base name -> summed _count values
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(line, out); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if base, isCount := strings.CutSuffix(s.Name, "_count"); isCount && out.Types[base] == "histogram" {
			counts[base] += s.Value
		}
		if base, isBucket := strings.CutSuffix(s.Name, "_bucket"); isBucket && s.Labels["le"] == "+Inf" {
			infBucket[base] += s.Value
		}
		// A sample must belong to a declared family (exact name, or a
		// histogram's generated _bucket/_sum/_count series).
		if _, ok := out.Types[s.Name]; !ok && !histogramChild(s.Name, out.Types) {
			return nil, fmt.Errorf("line %d: sample %q precedes its # TYPE declaration", lineNo, s.Name)
		}
		out.Samples = append(out.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for base, got := range counts {
		// Summed across series, _count must equal the +Inf buckets.
		if inf := infBucket[base]; got != inf {
			return nil, fmt.Errorf("histogram %s: sum of _count %v != sum of +Inf buckets %v", base, got, inf)
		}
	}
	return out, nil
}

// histogramChild reports whether name is a generated series of a
// declared histogram family.
func histogramChild(name string, types map[string]string) bool {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok && types[base] == "histogram" {
			return true
		}
	}
	return false
}

// parseComment handles # HELP and # TYPE lines (other comments pass).
func parseComment(line string, out *ParsedExposition) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		name, typ := fields[2], strings.TrimSpace(fields[3])
		if !validName(name) {
			return fmt.Errorf("invalid metric name %q in TYPE line", name)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", typ)
		}
		if _, dup := out.Types[name]; dup {
			return fmt.Errorf("duplicate TYPE for %q", name)
		}
		out.Types[name] = typ
	case "HELP":
		if len(fields) < 3 {
			return fmt.Errorf("malformed HELP line %q", line)
		}
		if !validName(fields[2]) {
			return fmt.Errorf("invalid metric name %q in HELP line", fields[2])
		}
	}
	return nil
}

// parseSample parses one `name{labels} value [timestamp]` line.
func parseSample(line string) (ParsedSample, error) {
	s := ParsedSample{Labels: make(map[string]string)}
	rest := line

	i := 0
	for i < len(rest) && rest[i] != '{' && rest[i] != ' ' && rest[i] != '\t' {
		i++
	}
	s.Name = rest[:i]
	if !validName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest = rest[i:]

	if strings.HasPrefix(rest, "{") {
		end := -1
		inQuote := false
		for j := 1; j < len(rest); j++ {
			switch {
			case inQuote && rest[j] == '\\':
				j++ // skip the escaped byte
			case rest[j] == '"':
				inQuote = !inQuote
			case !inQuote && rest[j] == '}':
				end = j
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		if err := parseLabels(rest[1:end], s.Labels); err != nil {
			return s, err
		}
		rest = rest[end+1:]
	}

	// Split off an OpenMetrics exemplar annotation first: everything
	// after ` # ` belongs to the exemplar, and the label set ahead of
	// the separator is already consumed, so a bare byte scan is safe.
	exemplar := ""
	if at := strings.Index(rest, " # "); at >= 0 {
		exemplar = strings.TrimSpace(rest[at+3:])
		rest = rest[:at]
	}

	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("want `value [timestamp]` after name, got %q", strings.TrimSpace(rest))
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad sample value %q: %v", fields[0], err)
	}
	s.Value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	if exemplar != "" {
		ex, err := parseExemplar(exemplar)
		if err != nil {
			return s, err
		}
		s.Exemplar = ex
	}
	return s, nil
}

// parseExemplar parses `{labels} value [timestamp]` — the annotation
// after a sample line's ` # ` separator.
func parseExemplar(body string) (*ParsedExemplar, error) {
	if !strings.HasPrefix(body, "{") {
		return nil, fmt.Errorf("exemplar must start with a label set, got %q", body)
	}
	end := -1
	inQuote := false
	for j := 1; j < len(body); j++ {
		switch {
		case inQuote && body[j] == '\\':
			j++
		case body[j] == '"':
			inQuote = !inQuote
		case !inQuote && body[j] == '}':
			end = j
		}
		if end >= 0 {
			break
		}
	}
	if end < 0 {
		return nil, fmt.Errorf("unterminated exemplar label set in %q", body)
	}
	ex := &ParsedExemplar{Labels: make(map[string]string)}
	if err := parseLabels(body[1:end], ex.Labels); err != nil {
		return nil, err
	}
	fields := strings.Fields(body[end+1:])
	if len(fields) < 1 || len(fields) > 2 {
		return nil, fmt.Errorf("want `value [timestamp]` after exemplar labels, got %q", body)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return nil, fmt.Errorf("bad exemplar value %q: %v", fields[0], err)
	}
	ex.Value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			return nil, fmt.Errorf("bad exemplar timestamp %q", fields[1])
		}
	}
	return ex, nil
}

// parseLabels parses `k="v",k2="v2"` into dst.
func parseLabels(body string, dst map[string]string) error {
	for body != "" {
		eq := strings.IndexByte(body, '=')
		if eq < 0 {
			return fmt.Errorf("malformed label pair near %q", body)
		}
		key := strings.TrimSpace(body[:eq])
		if !validName(key) {
			return fmt.Errorf("invalid label name %q", key)
		}
		body = body[eq+1:]
		if !strings.HasPrefix(body, `"`) {
			return fmt.Errorf("unquoted label value for %q", key)
		}
		body = body[1:]
		var val strings.Builder
		i := 0
		for ; i < len(body); i++ {
			c := body[i]
			if c == '\\' && i+1 < len(body) {
				i++
				switch body[i] {
				case 'n':
					val.WriteByte('\n')
				case '\\', '"':
					val.WriteByte(body[i])
				default:
					return fmt.Errorf("bad escape \\%c in label %q", body[i], key)
				}
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if i == len(body) {
			return fmt.Errorf("unterminated value for label %q", key)
		}
		dst[key] = val.String()
		body = body[i+1:]
		body = strings.TrimPrefix(body, ",")
		body = strings.TrimSpace(body)
	}
	return nil
}
