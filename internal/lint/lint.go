// Package lint is the repository's invariant linter: four static-analysis
// passes over the module's own sources that mechanically check the
// cross-cutting contracts the compiler cannot see.
//
//   - kindswitch: every switch over dist.Kind handles every exported
//     protocol kind, or carries a //varlint:kinds annotation naming the
//     kinds that are intentionally out of scope at that site.
//   - zeroalloc: functions annotated //varlint:zeroalloc contain no
//     syntactically allocating constructs (make/new, map or escaping
//     composite literals, string concatenation, capturing closures,
//     interface boxing of non-pointer values).
//   - determinism: the deterministic packages never read the wall clock,
//     never draw from the global math/rand state, and never emit protocol
//     traffic (or write snapshots/transcripts) from inside a map
//     iteration, whose order Go randomizes.
//   - snapfields: every struct with a paired Snapshot*/Restore* method set
//     persists every field in both directions, or tags the field
//     //varlint:volatile with an audit reason — so "a piece of state
//     existed that a recovery path didn't cover" is a build break.
//
// The passes are written against the standard library only (go/parser,
// go/ast, go/types with the source importer); go.mod stays
// dependency-free. See DESIGN.md "Static analysis & invariant linting"
// for pass semantics and the annotation grammar.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Finding is one reported violation.
type Finding struct {
	Pos  token.Position
	Pass string // "kindswitch", "zeroalloc", "determinism", "snapfields"
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Pass, f.Msg)
}

// Config names the repository-specific anchors the passes key on. Matching
// is by qualified or plain name, never by types.Object identity, so the
// same pass code runs against the real module and the self-contained test
// fixtures.
type Config struct {
	// KindTypes are the protocol enum types ("pkgpath.TypeName") whose
	// switches must be exhaustive over the exported constants of the
	// declaring package.
	KindTypes []string

	// DetPackages are the import paths subject to the determinism pass.
	DetPackages []string

	// DetExcludeFiles maps an import path to file basename globs exempt
	// from the determinism pass (the TCP transport lives in the otherwise
	// deterministic internal/dist).
	DetExcludeFiles map[string][]string

	// EmitMethods are method names whose call counts as protocol emission
	// or durable-state write for the determinism pass's map-range check.
	EmitMethods []string

	// OutboxTypeNames are named-type names treated as an outbox: passing a
	// value of such a type into a call marks the call as potentially
	// emitting.
	OutboxTypeNames []string

	// RecorderNames are func-valued fields or variables whose invocation
	// counts as a transcript append.
	RecorderNames []string
}

// DefaultConfig returns the configuration for this repository.
func DefaultConfig() *Config {
	return &Config{
		KindTypes:   []string{"repro/internal/dist.Kind"},
		DetPackages: []string{"repro/internal/dist", "repro/internal/track", "repro/internal/freq", "repro/internal/query", "repro/internal/expt"},
		DetExcludeFiles: map[string][]string{
			"repro/internal/dist": {"net*.go"},
		},
		EmitMethods:     []string{"Send", "SendTo", "Broadcast", "Snap"},
		OutboxTypeNames: []string{"Outbox"},
		RecorderNames:   []string{"Recorder", "Events"},
	}
}

// Run executes every pass over the loaded packages and returns the merged
// findings sorted by position.
func Run(pkgs []*Package, cfg *Config) []Finding {
	var out []Finding
	for _, p := range pkgs {
		out = append(out, KindSwitch(p, cfg)...)
		out = append(out, ZeroAlloc(p, cfg)...)
		out = append(out, Determinism(p, cfg)...)
		out = append(out, SnapFields(p, cfg)...)
	}
	Sort(out)
	return out
}

// Sort orders findings by file, line, column, pass.
func Sort(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Pass < b.Pass
	})
}
