package obs

import (
	"fmt"
	"strconv"
	"strings"
)

// Sample is one parsed exposition line: a metric name, its label pairs
// (nil when unlabeled), and the value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Label returns the value of label key ("" when absent).
func (s *Sample) Label(key string) string { return s.Labels[key] }

// ParseText parses a Prometheus text exposition (the subset Render
// emits: HELP/TYPE comments, samples with optional labels, no
// timestamps) into samples in input order. It exists for the round-trip
// and sum-invariant tests, and for CI smoke checks that a live scrape is
// well-formed.
func ParseText(text string) ([]Sample, error) {
	var out []Sample
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", ln+1, err)
		}
		out = append(out, s)
	}
	return out, nil
}

func parseSample(line string) (Sample, error) {
	var s Sample
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("no value in %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if s.Name == "" {
		return s, fmt.Errorf("empty metric name in %q", line)
	}
	if rest[0] == '{' {
		var err error
		if s.Labels, rest, err = parseLabels(rest[1:]); err != nil {
			return s, fmt.Errorf("%w in %q", err, line)
		}
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels consumes label pairs up to the closing brace, which ends the
// set only outside a quoted value, and returns them plus the remainder.
func parseLabels(body string) (map[string]string, string, error) {
	labels := make(map[string]string)
	for {
		body = strings.TrimSpace(body)
		if body == "" {
			return nil, "", fmt.Errorf("unterminated label set")
		}
		if body[0] == '}' {
			return labels, body[1:], nil
		}
		eq := strings.IndexByte(body, '=')
		if eq < 0 || len(body) < eq+2 || body[eq+1] != '"' || strings.ContainsAny(body[:eq], "{}\",") {
			return nil, "", fmt.Errorf("bad label pair")
		}
		key := strings.TrimSpace(body[:eq])
		val, rest, err := parseQuoted(body[eq+1:])
		if err != nil {
			return nil, "", err
		}
		labels[key] = val
		body = strings.TrimPrefix(strings.TrimSpace(rest), ",")
	}
}

// parseQuoted consumes a leading quoted string (with \\, \", \n escapes)
// and returns its unescaped value plus the remainder.
func parseQuoted(s string) (string, string, error) {
	if s == "" || s[0] != '"' {
		return "", "", fmt.Errorf("expected quoted label value")
	}
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("dangling escape")
			}
			i++
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			default:
				b.WriteByte(s[i])
			}
		case '"':
			return b.String(), s[i+1:], nil
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated label value")
}
