package lint

import (
	"go/ast"
	"go/types"
)

// LockNest guards deadlock freedom structurally. The concurrent layers (the
// par pool, the cache store and singleflight, serve admission and drain, the
// promtext families) each own mutexes and never nest them; without nesting no
// two paths can take a pair of mutexes in opposite orders (the ABBA
// deadlock), and no mutex is re-acquired while held (sync mutexes are not
// reentrant). The rule reports every Lock/RLock taken while another mutex is
// held, in the same function or through one level of same-package callee.
// The walk is linear in source order (branches in sequence, a deferred unlock
// holding its mutex to the end), exactly right for this repo's straight-line
// bodies. A nesting no path takes in the other order earns an allow.
var LockNest = &Analyzer{
	Name: "locknest",
	Doc:  "no Lock/RLock while another mutex is held, directly or through one same-package call",
	Run:  runLockNest,
}

// heldMutex is a held mutex and its source spelling (h.mu), for reports.
type heldMutex struct {
	v    *types.Var
	expr string
}

func runLockNest(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			var held []heldMutex
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.DeferStmt:
					return false // a deferred unlock keeps its mutex held to the end
				case *ast.CallExpr:
					v, op := p.mutexCall(n)
					switch {
					case op == "Lock" || op == "RLock":
						expr := types.ExprString(n.Fun.(*ast.SelectorExpr).X)
						if len(held) > 0 {
							p.Reportf(n.Pos(), "%s locked while %s is held; nested locks risk lock-order inversion and self-deadlock", expr, held[len(held)-1].expr)
						}
						held = append(held, heldMutex{v, expr})
					case op == "Unlock" || op == "RUnlock":
						for i := len(held) - 1; i >= 0; i-- {
							if held[i].v == v {
								held = append(held[:i], held[i+1:]...)
								break
							}
						}
					case v == nil && len(held) > 0:
						if body := p.samePackageFuncBody(n.Fun); body != nil {
							if inner := p.firstLock(body); inner != "" {
								p.Reportf(n.Pos(), "call locks %s while %s is held; nested locks risk lock-order inversion and self-deadlock", inner, held[len(held)-1].expr)
							}
						}
					}
				}
				return true
			})
		}
	}
}

// firstLock returns the source spelling of body's first lock, or "".
func (p *Pass) firstLock(body *ast.BlockStmt) string {
	first := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if _, op := p.mutexCall(call); op == "Lock" || op == "RLock" {
				first = types.ExprString(call.Fun.(*ast.SelectorExpr).X)
			}
		}
		return first == ""
	})
	return first
}

// mutexCall recognises m.Lock()/m.Unlock()/… on a sync.Mutex or
// sync.RWMutex variable — a struct field (all instances of a field share one
// variable, the standard static approximation) or a plain variable — and
// returns the variable and the method name.
func (p *Pass) mutexCall(call *ast.CallExpr) (*types.Var, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	var obj types.Object
	switch x := sel.X.(type) {
	case *ast.SelectorExpr:
		if s := p.Info.Selections[x]; s != nil {
			obj = s.Obj()
		} else {
			obj = p.Info.Uses[x.Sel] // package-qualified var (pkg.mu)
		}
	case *ast.Ident:
		obj = p.Info.Uses[x]
	}
	if v, ok := obj.(*types.Var); ok && isMutexType(v.Type()) {
		return v, sel.Sel.Name
	}
	return nil, ""
}

// isMutexType reports whether t (possibly behind a pointer) is sync.Mutex
// or sync.RWMutex.
func isMutexType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	s := types.TypeString(t, nil)
	return s == "sync.Mutex" || s == "sync.RWMutex"
}
