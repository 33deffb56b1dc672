package query

import (
	"fmt"
	"strconv"
	"strings"
)

// Spec describes one tracking query. The zero value is not valid; fill Algo
// and Eps (or use ParseSpecs) and pass the result to New or Coord.Attach.
type Spec struct {
	// Name labels the query in status output; empty means "<algo><id>".
	Name string
	// Algo selects the tracker family: det, rand, freq, or threshold.
	Algo string
	// Eps is the query's relative-error parameter.
	Eps float64
	// Seed seeds the randomized tracker family.
	Seed uint64
	// Tau is the threshold for Algo == "threshold".
	Tau int64
	// Filter, when non-nil, restricts the query to updates whose item it
	// matches; the tracked aggregate becomes the filtered net count.
	Filter *Filter
	// AttachAt, when > 0, asks the driver (cmd/varmon, E29) to register
	// the query after update AttachAt instead of at stream start. The
	// engine itself does not interpret it.
	AttachAt int64
}

// Label returns the query's display name, falling back to "<algo><id>".
func (s Spec) Label(id int) string {
	if s.Name != "" {
		return s.Name
	}
	return fmt.Sprintf("%s%d", s.Algo, id)
}

// Validate reports whether the spec can be built.
func (s Spec) Validate() error {
	switch s.Algo {
	case "det", "rand", "freq":
	case "threshold":
		if s.Tau < 1 {
			return fmt.Errorf("query: threshold spec needs tau >= 1 (got %d)", s.Tau)
		}
	default:
		return fmt.Errorf("query: unknown algo %q (valid: det|rand|freq|threshold)", s.Algo)
	}
	if !(s.Eps > 0 && s.Eps < 1) { // NaN fails every comparison
		return fmt.Errorf("query: spec %s needs 0 < eps < 1 (got %g)", s.Algo, s.Eps)
	}
	return nil
}

// Filter restricts a query to a subset of the item universe.
type Filter struct {
	// Name is the parseable form the filter was built from.
	Name string
	// Match reports whether an item belongs to the query.
	Match func(item uint64) bool
}

// ParseFilter builds a Filter from its textual form:
//
//	even         items with item%2 == 0
//	odd          items with item%2 == 1
//	mod:M:R      items with item%M == R
//	le:N         items with item <= N
//	item:X       exactly item X
func ParseFilter(s string) (*Filter, error) {
	mk := func(match func(uint64) bool) (*Filter, error) {
		return &Filter{Name: s, Match: match}, nil
	}
	switch {
	case s == "even":
		return mk(func(i uint64) bool { return i%2 == 0 })
	case s == "odd":
		return mk(func(i uint64) bool { return i%2 == 1 })
	case strings.HasPrefix(s, "mod:"):
		parts := strings.Split(s, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("query: filter %q wants mod:M:R", s)
		}
		m, err1 := strconv.ParseUint(parts[1], 10, 64)
		r, err2 := strconv.ParseUint(parts[2], 10, 64)
		if err1 != nil || err2 != nil || m == 0 || r >= m {
			return nil, fmt.Errorf("query: filter %q wants mod:M:R with R < M", s)
		}
		return mk(func(i uint64) bool { return i%m == r })
	case strings.HasPrefix(s, "le:"):
		n, err := strconv.ParseUint(s[3:], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("query: filter %q: %v", s, err)
		}
		return mk(func(i uint64) bool { return i <= n })
	case strings.HasPrefix(s, "item:"):
		x, err := strconv.ParseUint(s[5:], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("query: filter %q: %v", s, err)
		}
		return mk(func(i uint64) bool { return i == x })
	}
	return nil, fmt.Errorf("query: unknown filter %q (valid: even|odd|mod:M:R|le:N|item:X)", s)
}

// ParseSpecs parses the CLI query-list syntax: specs separated by ';', each
// an algo name followed by comma-separated key=value options:
//
//	det,eps=0.1;rand,eps=0.05,seed=7;freq,eps=0.2,filter=even;threshold,eps=0.1,tau=500
//
// Options: eps (default 0.1), seed (default 1+index), tau, filter (see
// ParseFilter), at (attach after update T), name.
func ParseSpecs(s string) ([]Spec, error) {
	var specs []Spec
	for i, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ",")
		spec := Spec{Algo: strings.TrimSpace(fields[0]), Eps: 0.1, Seed: uint64(1 + i)}
		for _, f := range fields[1:] {
			key, val, ok := strings.Cut(strings.TrimSpace(f), "=")
			if !ok {
				return nil, fmt.Errorf("query: spec %q: option %q is not key=value", part, f)
			}
			var err error
			switch key {
			case "eps":
				spec.Eps, err = strconv.ParseFloat(val, 64)
			case "seed":
				spec.Seed, err = strconv.ParseUint(val, 10, 64)
			case "tau":
				spec.Tau, err = strconv.ParseInt(val, 10, 64)
			case "at":
				spec.AttachAt, err = strconv.ParseInt(val, 10, 64)
			case "name":
				spec.Name = val
			case "filter":
				spec.Filter, err = ParseFilter(val)
			default:
				return nil, fmt.Errorf("query: spec %q: unknown option %q (valid: eps|seed|tau|at|name|filter)", part, key)
			}
			if err != nil {
				return nil, fmt.Errorf("query: spec %q: %v", part, err)
			}
		}
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("query: empty query list")
	}
	return specs, nil
}
