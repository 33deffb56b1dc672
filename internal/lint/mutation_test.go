package lint

// Mutation tests: start from a clean source, apply the exact edit the
// linter exists to catch — deleting a Kind case, adding a field to
// det-site state — and assert the pass flips from silent to reporting.
// This pins down that the fixtures pass for the right reason: the same
// code minus the violation is clean.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mutKindSrc is a complete two-kind switch; the mutation deletes the
// KindB case.
const mutKindSrc = `package mut

type Kind uint8

const (
	KindA Kind = iota
	KindB
)

func handle(k Kind) int {
	switch k {
	case KindA:
		return 1
	case KindB:
		return 2
	}
	return 0
}
`

// mutSnapSrc is a fully-covered det-site snapshot method; the mutation
// adds an uncovered field.
const mutSnapSrc = `package mut

type Codec struct {
	dec bool
	buf []int64
}

func (c *Codec) Decoding() bool { return c.dec }

func (c *Codec) Int(p *int64) {
	if c.dec {
		*p, c.buf = c.buf[0], c.buf[1:]
	} else {
		c.buf = append(c.buf, *p)
	}
}

type detSite struct {
	n   int64
	eps float64
}

func (s *detSite) Snap(c *Codec) error {
	c.Int(&s.n)
	e := int64(s.eps * 1e9)
	c.Int(&e)
	if c.Decoding() {
		s.eps = float64(e) / 1e9
	}
	return nil
}
`

// loadSrc writes src to its own directory and loads it under asPath.
func loadSrc(t *testing.T, src, asPath string) *Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "mut.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := repoLoader(t).LoadDir(dir, asPath)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMutationDeletedKindCase(t *testing.T) {
	clean := loadSrc(t, mutKindSrc, "mut/kind/clean")
	cfg := &Config{KindTypes: []string{"mut/kind/clean.Kind"}}
	if fs := KindSwitch(clean, cfg); len(fs) != 0 {
		t.Fatalf("clean source reported: %v", fs)
	}

	mutated := strings.Replace(mutKindSrc, "\tcase KindB:\n\t\treturn 2\n", "", 1)
	if mutated == mutKindSrc {
		t.Fatal("mutation did not apply")
	}
	broken := loadSrc(t, mutated, "mut/kind/broken")
	cfg = &Config{KindTypes: []string{"mut/kind/broken.Kind"}}
	fs := KindSwitch(broken, cfg)
	if len(fs) != 1 || !strings.Contains(fs[0].Msg, "does not handle KindB") {
		t.Fatalf("deleted Kind case not reported: %v", fs)
	}
}

func TestMutationAddedSiteField(t *testing.T) {
	clean := loadSrc(t, mutSnapSrc, "mut/snap/clean")
	if fs := SnapFields(clean, DefaultConfig()); len(fs) != 0 {
		t.Fatalf("clean source reported: %v", fs)
	}

	mutated := strings.Replace(mutSnapSrc, "\teps float64\n", "\teps float64\n\tlost int64\n", 1)
	if mutated == mutSnapSrc {
		t.Fatal("mutation did not apply")
	}
	broken := loadSrc(t, mutated, "mut/snap/broken")
	fs := SnapFields(broken, DefaultConfig())
	if len(fs) != 1 ||
		!strings.Contains(fs[0].Msg, "field lost of detSite is not covered by either the snapshot or the restore path") {
		t.Fatalf("added field not reported: %v", fs)
	}
}
