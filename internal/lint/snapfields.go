package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// SnapFields enforces the snapshot-coverage contract: for every struct
// with a Snap method, the one method that codes its state in both
// directions, every field must be referenced in both directions —
// directly or through same-package helpers the method calls — or carry a
// //varlint:volatile <reason> tag stating why the field is legitimately
// not persisted. The pass walks Snap once per direction: the encoding walk
// skips the branches an encoding pass cannot take (the body of
// `if c.Decoding()`, the else of `if !c.Decoding()`) and the decoding walk
// skips the others, so a field read only in a decoding block is still
// missing from the snapshot path. Both bugs the chaos harness first caught
// were a piece of state a recovery path didn't cover; this pass makes that
// a build break the moment the field is added.
func SnapFields(p *Package, cfg *Config) []Finding {
	var out []Finding
	for _, name := range p.Types.Scope().Names() {
		tn, ok := p.Types.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		var snap *ast.FuncDecl
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			if fd := p.Decls[m]; m.Name() == "Snap" && fd != nil && fd.Body != nil {
				snap = fd
			}
		}
		if snap == nil {
			continue
		}
		snapRefs := fieldRefs(p, named, snap, false)
		restRefs := fieldRefs(p, named, snap, true)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			pos := p.Fset.Position(f.Pos())
			if ann := annotsForFile(p, f.Pos()); ann != nil {
				if _, ok := ann.at(pos.Line, dirVolatile); ok {
					continue
				}
			}
			inSnap, inRest := snapRefs[f], restRefs[f]
			if inSnap && inRest {
				continue
			}
			var miss string
			switch {
			case !inSnap && !inRest:
				miss = "either the snapshot or the restore path"
			case !inSnap:
				miss = "the snapshot path"
			default:
				miss = "the restore path"
			}
			out = append(out, Finding{Pos: pos, Pass: "snapfields",
				Msg: fmt.Sprintf("field %s of %s is not covered by %s; persist it or tag it //varlint:volatile <reason>",
					f.Name(), name, miss)})
		}
	}
	return out
}

// skippedBranch returns the branch of ifs that a pass in the given
// direction never takes, or nil: when encoding, the body of
// `if c.Decoding()` and the else of `if !c.Decoding()`; when decoding, the
// other two.
func skippedBranch(ifs *ast.IfStmt, decoding bool) ast.Stmt {
	cond, test := ast.Unparen(ifs.Cond), true
	if u, ok := cond.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		cond, test = ast.Unparen(u.X), false
	}
	call, ok := cond.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return nil
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Decoding" {
		return nil
	}
	if test == decoding {
		return ifs.Else
	}
	return ifs.Body
}

// annotsForFile finds the directive index of the file containing pos.
func annotsForFile(p *Package, pos token.Pos) *annots {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return p.Annots[f]
		}
	}
	return nil
}

// fieldRefs returns the set of named's own struct fields referenced by a
// pass of snap in one direction, in snap or in any same-package function
// it transitively calls, skipping the branches that direction never takes
// (see skippedBranch). A selection of a field promoted through an embedded
// field counts as a reference to the embedded field itself.
func fieldRefs(p *Package, named *types.Named, snap *ast.FuncDecl, decoding bool) map[*types.Var]bool {
	st := named.Underlying().(*types.Struct)
	refs := make(map[*types.Var]bool)
	visited := make(map[*ast.FuncDecl]bool)
	queue := []*ast.FuncDecl{snap}
	for len(queue) > 0 {
		fd := queue[0]
		queue = queue[1:]
		if fd == nil || visited[fd] || fd.Body == nil {
			continue
		}
		visited[fd] = true
		skip := make(map[ast.Node]bool)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if n == nil || skip[n] {
				return false
			}
			switch n := n.(type) {
			case *ast.IfStmt:
				if b := skippedBranch(n, decoding); b != nil {
					skip[b] = true
				}
			case *ast.CallExpr:
				if callee := calleeObj(p, n); callee != nil {
					if next, ok := p.Decls[callee]; ok {
						queue = append(queue, next)
					}
				}
			case *ast.SelectorExpr:
				sel := p.Info.Selections[n]
				if sel == nil {
					return true
				}
				recv := sel.Recv()
				if ptr, ok := recv.Underlying().(*types.Pointer); ok {
					recv = ptr.Elem()
				}
				if !sameNamed(recv, named) {
					return true
				}
				if idx := sel.Index(); len(idx) > 0 && idx[0] < st.NumFields() {
					refs[st.Field(idx[0])] = true
				}
			case *ast.Ident:
				// Struct-literal keys (T{field: v}) resolve to the field
				// object in Uses.
				if v, ok := p.Info.Uses[n].(*types.Var); ok && v.IsField() {
					for i := 0; i < st.NumFields(); i++ {
						if st.Field(i) == v {
							refs[v] = true
						}
					}
				}
			}
			return true
		})
	}
	return refs
}

func sameNamed(t types.Type, named *types.Named) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj() == named.Obj()
}
