package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DetRed pins the deterministic-reduction discipline of the parallel hot
// path. The bit-identity contract (DESIGN.md §11, the *ProcsBitIdentical
// tests) requires that a cross-chunk floating-point sum fold partials
// over blocks whose size does not depend on the pool size, in block order
// — never per-worker partials, whose count (and thus fold order and
// intermediate rounding) would change with the pool size.
// The one cross-chunk fold left in the tree is la.BandLU's per-chunk
// FactorOps partials, which are int64 and so add exactly in any order.
//
// Statically, the failure mode is a reduction loop whose trip count is
// derived from the parallelism: pool.Procs(), runtime.GOMAXPROCS, or
// runtime.NumCPU. The rule taints values flowing from those sources
// through assignments inside each function, then reports any for/range
// loop that is bounded by (or iterates over a collection sized by) a
// tainted value while accumulating floats in its body. Integer accounting
// over per-chunk partials is exempt; deliberate procs-dependent float folds
// — none exist today — would need
// `//pdevet:allow detred <why the result is still deterministic>`.
var DetRed = &Analyzer{
	Name: "detred",
	Doc:  "no float accumulation over procs-dependent ranges; fold partials over blocks whose size does not depend on the pool size",
	Run:  runDetRed,
}

func runDetRed(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkDetRed(p, fn)
		}
	}
}

func checkDetRed(p *Pass, fn *ast.FuncDecl) {
	tainted := map[*types.Var]bool{}

	// exprTainted reports whether e mentions a taint source or a tainted
	// variable.
	var exprTainted func(e ast.Expr) bool
	exprTainted = func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if found {
				return false
			}
			switch n := n.(type) {
			case *ast.CallExpr:
				if isProcsSource(p, n) {
					found = true
					return false
				}
			case *ast.Ident:
				if v, ok := p.Info.Uses[n].(*types.Var); ok && tainted[v] {
					found = true
					return false
				}
			}
			return true
		})
		return found
	}

	// Forward source-order pass: propagate taint through assignments, then
	// flag tainted-bound loops that accumulate floats.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				rhs := n.Rhs[0]
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				v, _ := p.Info.Defs[id].(*types.Var)
				if v == nil {
					v, _ = p.Info.Uses[id].(*types.Var)
				}
				if v != nil && exprTainted(rhs) {
					tainted[v] = true
				}
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				if i < len(n.Values) && exprTainted(n.Values[i]) {
					if v, ok := p.Info.Defs[id].(*types.Var); ok {
						tainted[v] = true
					}
				}
			}
		case *ast.ForStmt:
			if n.Cond != nil && exprTainted(n.Cond) {
				if acc := floatAccumulation(p, n.Body); acc.IsValid() {
					p.Reportf(acc, "float accumulation over a procs-dependent loop bound changes fold order with the pool size; fold partials over blocks whose size does not depend on it")
				}
			}
		case *ast.RangeStmt:
			if exprTainted(n.X) {
				if acc := floatAccumulation(p, n.Body); acc.IsValid() {
					p.Reportf(acc, "float accumulation over a procs-sized collection changes fold order with the pool size; fold partials over blocks whose size does not depend on it")
				}
			}
		}
		return true
	})
}

// floatAccumulation returns the position of the first floating-point
// compound accumulation in body, or token.NoPos.
func floatAccumulation(p *Pass, body *ast.BlockStmt) token.Pos {
	pos := token.NoPos
	ast.Inspect(body, func(n ast.Node) bool {
		if pos.IsValid() {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			if len(as.Lhs) == 1 && isFloat(p.Info.TypeOf(as.Lhs[0])) {
				pos = as.Pos()
			}
		case token.ASSIGN:
			// s = s + x[i] spelled out: lhs float and lhs appears in rhs.
			if len(as.Lhs) == 1 && len(as.Rhs) == 1 && isFloat(p.Info.TypeOf(as.Lhs[0])) {
				lv, _ := as.Lhs[0].(*ast.Ident)
				if lv == nil {
					return true
				}
				obj := p.Info.Uses[lv]
				mentions := false
				ast.Inspect(as.Rhs[0], func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok && obj != nil && p.Info.Uses[id] == obj {
						mentions = true
					}
					return !mentions
				})
				if mentions {
					pos = as.Pos()
				}
			}
		}
		return true
	})
	return pos
}

// isProcsSource recognises the parallelism-width sources: a Procs() method
// call on internal/par's Pool, runtime.GOMAXPROCS, and runtime.NumCPU.
func isProcsSource(p *Pass, call *ast.CallExpr) bool {
	if name, ok := p.pkgSelector(call.Fun, "runtime"); ok {
		return name == "GOMAXPROCS" || name == "NumCPU"
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Procs" {
		return false
	}
	s := p.Info.Selections[sel]
	if s == nil {
		return false
	}
	recv := s.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Name() == "par" && obj.Name() == "Pool"
}
