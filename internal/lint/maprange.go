package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapRange keeps Go's randomized map iteration order out of every output
// that is contractually deterministic: the Prometheus text exposition
// (scrape diffs and the smoke scripts grep exact lines), cache key
// construction (a content address built in map order would hash the same
// request differently per process), response bodies (exact-repeat requests
// promise byte-identical replays), and floating-point accumulation (sum
// order changes the last bits, which the cross-procs bit-identity tests
// would catch only at runtime).
//
// The rule flags `range` over a map when the loop body feeds an
// order-sensitive sink:
//
//   - writes: fmt.Fprint*/Print* calls, any Write/WriteString/WriteByte/
//     WriteRune/Sum method (io.Writer, strings.Builder, hash.Hash);
//   - string or floating-point accumulation (+= and friends) into a
//     variable declared outside the loop;
//   - appends into an outside slice, unless that slice is passed to a
//     sort.* / slices.Sort* call later in the same function — the
//     collect-keys-then-sort idiom is the sanctioned fix and is recognised
//     as such.
//
// Order-insensitive exceptions (commutative integer counts over a
// snapshot, say) are annotated `//pdevet:allow maprange <why order cannot
// show>`.
var MapRange = &Analyzer{
	Name: "maprange",
	Doc:  "no map iteration feeding serialized output, keys, or float accumulation without sorting",
	Run:  runMapRange,
}

// orderSinkMethods are method names whose call inside a map-range loop
// serializes loop-order into bytes.
var orderSinkMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
	"Sum":         true,
	"Encode":      true,
}

func runMapRange(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if t := p.Info.TypeOf(rs.X); t == nil {
					return true
				} else if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				if sink := p.mapRangeSink(fn.Body, rs); sink != "" {
					p.Reportf(rs.Pos(), "map iteration order feeds %s; Go randomizes it per run — sort the keys first", sink)
				}
				return true
			})
		}
	}
}

// mapRangeSink classifies the loop body's first order-sensitive sink,
// returning "" for clean loops.
func (p *Pass) mapRangeSink(fnBody *ast.BlockStmt, rs *ast.RangeStmt) string {
	sink := ""
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if name, ok := p.pkgSelector(n.Fun, "fmt"); ok && name != "Sprintf" && name != "Errorf" {
				sink = "a fmt." + name + " call"
				return false
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && orderSinkMethods[sel.Sel.Name] {
				if s := p.Info.Selections[sel]; s != nil {
					sink = "a ." + sel.Sel.Name + " call"
					return false
				}
			}
			// Appends into an outside slice: the collect idiom. Clean only
			// when the collected slice is sorted later in the function.
			if id, ok := n.Fun.(*ast.Ident); ok {
				if b, ok := p.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(n.Args) > 0 {
					if dst := p.rootVar(n.Args[0]); dst != nil && !p.sortedAfter(fnBody, rs.End(), dst) {
						sink = "an unsorted key/value collection (append without a later sort)"
						return false
					}
				}
			}
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				if len(n.Lhs) == 1 {
					t := p.Info.TypeOf(n.Lhs[0])
					switch {
					case isFloat(t):
						sink = "floating-point accumulation (rounding is order-dependent)"
						return false
					case isString(t) && n.Tok == token.ADD_ASSIGN:
						sink = "string concatenation"
						return false
					}
				}
			}
		}
		return true
	})
	return sink
}

// rootVar resolves an expression to its base variable.
func (p *Pass) rootVar(e ast.Expr) *types.Var {
	switch e := e.(type) {
	case *ast.Ident:
		v, _ := p.Info.Uses[e].(*types.Var)
		if v == nil {
			v, _ = p.Info.Defs[e].(*types.Var)
		}
		return v
	case *ast.SelectorExpr:
		if s := p.Info.Selections[e]; s != nil {
			v, _ := s.Obj().(*types.Var)
			return v
		}
		v, _ := p.Info.Uses[e.Sel].(*types.Var)
		return v
	case *ast.IndexExpr:
		return p.rootVar(e.X)
	case *ast.ParenExpr:
		return p.rootVar(e.X)
	}
	return nil
}

// sortedAfter reports whether v is passed to a sort.*/slices.Sort* call (or
// a sort.Slice closure over it) positioned after pos in the function body.
func (p *Pass) sortedAfter(fnBody *ast.BlockStmt, pos token.Pos, v *types.Var) bool {
	sorted := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		_, isSort := p.pkgSelector(call.Fun, "sort")
		if !isSort {
			_, isSort = p.pkgSelector(call.Fun, "slices")
		}
		if !isSort || len(call.Args) == 0 {
			return true
		}
		// Any sort-package call whose first argument mentions v counts:
		// sort.Strings(keys), sort.Slice(rows, …), slices.Sort(keys).
		mentions := false
		ast.Inspect(call.Args[0], func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok && p.Info.Uses[id] == v {
				mentions = true
			}
			return !mentions
		})
		if mentions {
			sorted = true
		}
		return true
	})
	return sorted
}

// isString reports string-typed (or untyped string) expressions.
func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
