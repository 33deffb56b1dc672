package lint

import (
	"go/ast"
	"go/types"
	"path"
	"path/filepath"
	"strings"
)

// Determinism enforces the deterministic-runtime contract on the
// configured packages: no wall-clock reads (time.Now), no draws from the
// global math/rand state (seeded rand.New sources are fine — they are
// reproducible), and no map iteration whose body can emit protocol
// traffic, append to a transcript, or write a snapshot, because Go
// randomizes map order and the emission order would differ run to run
// (the exact bug PR 3 fixed by sorting block-end report order).
//
// "Can emit" is computed as a fixpoint over the package: a range body
// emits if it directly calls an emit method (Send/SendTo/Broadcast/
// Snap), invokes a Recorder, passes an Outbox-typed value into
// any call, or calls a same-package function that emits.
//
// Audited exceptions: //varlint:wallclock <reason> on the clock read,
// //varlint:unordered <reason> on the range statement.
func Determinism(p *Package, cfg *Config) []Finding {
	det := false
	for _, dp := range cfg.DetPackages {
		if p.Path == dp {
			det = true
			break
		}
	}
	if !det {
		return nil
	}
	emits := emitClosure(p, cfg)

	var out []Finding
	for _, f := range p.Files {
		if detExcluded(p, f, cfg) {
			continue
		}
		ann := p.Annots[f]
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				obj := p.Info.Uses[n.Sel]
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				pos := p.Fset.Position(n.Pos())
				if obj.Pkg().Path() == "time" && obj.Name() == "Now" {
					if _, ok := ann.at(pos.Line, dirWallclock); !ok {
						out = append(out, Finding{Pos: pos, Pass: "determinism",
							Msg: "time.Now in a deterministic package (audit with //varlint:wallclock <reason> if this never reaches protocol state)"})
					}
				}
				if fn, ok := obj.(*types.Func); ok && isGlobalRand(fn) {
					out = append(out, Finding{Pos: pos, Pass: "determinism",
						Msg: "global math/rand." + fn.Name() + " in a deterministic package; draw from a seeded rand.New source instead"})
				}
			case *ast.RangeStmt:
				if _, ok := p.Info.TypeOf(n.X).Underlying().(*types.Map); !ok {
					return true
				}
				pos := p.Fset.Position(n.Pos())
				if _, ok := ann.at(pos.Line, dirUnordered); ok {
					return true
				}
				if why := bodyEmits(p, cfg, n.Body, emits); why != "" {
					out = append(out, Finding{Pos: pos, Pass: "determinism",
						Msg: "map iteration order reaches " + why + "; iterate a sorted key slice, or audit with //varlint:unordered <reason>"})
				}
			}
			return true
		})
	}
	return out
}

// detExcluded reports whether the file is exempted from the determinism
// pass by a DetExcludeFiles glob (e.g. the TCP transport files inside
// internal/dist).
func detExcluded(p *Package, f *ast.File, cfg *Config) bool {
	base := filepath.Base(p.Fset.Position(f.Pos()).Filename)
	for _, glob := range cfg.DetExcludeFiles[p.Path] {
		if ok, _ := path.Match(glob, base); ok {
			return true
		}
	}
	return false
}

// isGlobalRand reports whether fn is a math/rand package-level function
// backed by the global source. Constructors of independent, seedable
// state are deterministic and allowed.
func isGlobalRand(fn *types.Func) bool {
	if fn.Pkg() == nil || (fn.Pkg().Path() != "math/rand" && fn.Pkg().Path() != "math/rand/v2") {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false // methods on rand.Rand etc. use their own source
	}
	switch fn.Name() {
	case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
		return false
	}
	return true
}

// emitClosure computes, for every function declared in the package,
// whether its body can emit (directly or through same-package calls).
func emitClosure(p *Package, cfg *Config) map[types.Object]bool {
	direct := make(map[types.Object]bool, len(p.Decls))
	callees := make(map[types.Object][]types.Object, len(p.Decls))
	for obj, fd := range p.Decls {
		if fd.Body == nil {
			continue
		}
		direct[obj] = directEmit(p, cfg, fd.Body) != ""
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := calleeObj(p, call); callee != nil {
				if _, local := p.Decls[callee]; local {
					callees[obj] = append(callees[obj], callee)
				}
			}
			return true
		})
	}
	emits := direct
	for changed := true; changed; {
		changed = false
		for obj := range callees {
			if emits[obj] {
				continue
			}
			for _, c := range callees[obj] {
				if emits[c] {
					emits[obj] = true
					changed = true
					break
				}
			}
		}
	}
	return emits
}

// bodyEmits reports why the statement block can emit ("" if it cannot).
func bodyEmits(p *Package, cfg *Config, body ast.Node, emits map[types.Object]bool) string {
	why := directEmit(p, cfg, body)
	if why != "" {
		return why
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callee := calleeObj(p, call); callee != nil && emits[callee] {
			why = "an emission inside " + callee.Name()
			return false
		}
		return true
	})
	return why
}

// directEmit reports why the node emits directly ("" if it does not): an
// emit-method call, a Recorder invocation, or an Outbox-typed value
// escaping into a call.
func directEmit(p *Package, cfg *Config, root ast.Node) string {
	why := ""
	ast.Inspect(root, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			name := sel.Sel.Name
			for _, m := range cfg.EmitMethods {
				if name == m && p.Info.Selections[sel] != nil {
					why = name
					return false
				}
			}
			for _, r := range cfg.RecorderNames {
				if name == r {
					why = "the " + name + " transcript hook"
					return false
				}
			}
		}
		for _, arg := range call.Args {
			if isOutboxType(p.Info.TypeOf(arg), cfg) {
				why = "a call that receives an Outbox"
				return false
			}
		}
		return true
	})
	return why
}

// isOutboxType reports whether t names (or points to) one of the
// configured outbox types. Matching is by name suffix so the concrete
// implementations (simOutbox, tagOutbox, ...) count alongside the
// interface itself.
func isOutboxType(t types.Type, cfg *Config) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	for _, n := range cfg.OutboxTypeNames {
		if strings.HasSuffix(named.Obj().Name(), n) {
			return true
		}
	}
	return false
}

// calleeObj resolves a call to the function or method object it invokes,
// when that is statically known.
func calleeObj(p *Package, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return p.Info.Uses[fun]
	case *ast.SelectorExpr:
		return p.Info.Uses[fun.Sel]
	}
	return nil
}
