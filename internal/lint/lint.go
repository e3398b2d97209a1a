// Package lint is the repo's custom static-analysis pass (the `pdevet`
// tool): a pure-stdlib driver (go/ast, go/parser, go/token, go/types — no
// golang.org/x/tools dependency) plus the project-specific analyzers that
// turn this repository's numerical and hot-path conventions into
// machine-checked rules. The evaluation protocol depends on invariants that
// dynamic checks cannot fully guard — reproducible noise injection, a
// simulated-time model that wall-clock reads would silently invalidate, and
// a zero-allocation steady stepping path — so each convention is a named
// analyzer:
//
//	noalloc     functions annotated //pdevet:noalloc stay free of
//	            allocating constructs (make/new/append/closures/fmt/&lit)
//	seededrand  randomness flows through an injected *rand.Rand, never the
//	            global math/rand source
//	walltime    wall-clock reads (time.Now/Since/Until) stay inside the
//	            profiling package; simulated time uses internal/perfmodel
//	floateq     no ==/!= on floating-point operands
//	ctxcheck    context.Context is a first parameter, never a struct field
//	errdrop     no `_ = err` swallows; fmt.Errorf wraps errors with %w
//
// The concurrency/determinism suite extends the set to the runtime
// contracts of the serving stack — deadlock freedom, drain-complete
// shutdown, and byte-identical cache replays and metric scrapes:
//
//	locknest    no Lock/RLock while another mutex is held, directly or
//	            through one same-package call
//	goroutine   every `go` statement reaches a ctx, WaitGroup, or channel
//	            lifecycle, so drain/join can observe it
//	maprange    no map iteration feeds serialized output, key construction,
//	            or float/string accumulation without sorting first
//
// Findings are suppressed with annotation comments (see annot.go):
// `//pdevet:allow <rule> [reason]` on the offending line (or the line
// above), in a function's doc comment, or before the package clause for
// file scope. The driver reports allow annotations that no longer suppress
// anything, so suppressions cannot outlive the code they excused.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named rule. Run inspects a type-checked package and
// reports findings through the Pass.
type Analyzer struct {
	// Name is the rule identifier used in output and in
	// //pdevet:allow <name> annotations.
	Name string
	// Doc is a one-line description of the invariant.
	Doc string
	// Run executes the rule over one package.
	Run func(*Pass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's non-test syntax trees, comments attached.
	Files []*ast.File
	// Pkg and Info are the go/types results for the package.
	Pkg  *types.Package
	Info *types.Info
	// Path is the package import path (module-qualified).
	Path string

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:  p.Fset.Position(pos),
		Rule: p.Analyzer.Name,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding of one rule.
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
}

// Analyzers returns the full rule set in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NoAlloc,
		SeededRand,
		WallTime,
		FloatEq,
		CtxCheck,
		ErrDrop,
		LockNest,
		Goroutine,
		MapRange,
	}
}

// AnalyzerByName resolves a rule name, for -rule selection in the CLI.
func AnalyzerByName(name string) (*Analyzer, bool) {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// Result is the outcome of analyzing one package.
type Result struct {
	// Diags are the findings that survived //pdevet:allow suppression,
	// sorted by position.
	Diags []Diagnostic
	// Unused are "unusedallow" diagnostics for directives that suppressed
	// nothing. Populated only when the full rule set ran (under a -rule
	// filter, other rules' allows would be trivially unused).
	Unused []Diagnostic
}

// AnalyzePackage executes the analyzers over one loaded package, applies the
// package's //pdevet:allow annotations, and — when the analyzer set is the
// complete one — reports stale annotations that suppressed nothing.
func AnalyzePackage(pkg *Package, analyzers []*Analyzer) Result {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Path:     pkg.Path,
			diags:    &diags,
		}
		a.Run(pass)
	}
	allows := collectAllows(pkg.Fset, pkg.Files)
	kept := diags[:0]
	for _, d := range diags {
		if !allows.allowed(d) {
			kept = append(kept, d)
		}
	}
	sortDiags(kept)
	res := Result{Diags: kept}
	if len(analyzers) == len(Analyzers()) {
		res.Unused = allows.unused()
		sortDiags(res.Unused)
	}
	return res
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i].Pos, ds[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return ds[i].Rule < ds[j].Rule
	})
}

// forEachNode walks every file of the pass with fn; returning false from fn
// prunes the subtree.
func (p *Pass) forEachNode(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// isPkgCall reports whether e is a selector on the import of pkgPath
// (e.g. rand.Intn with pkgPath "math/rand"), returning the selected name.
func (p *Pass) pkgSelector(e ast.Expr, pkgPath string) (string, bool) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != pkgPath {
		return "", false
	}
	return sel.Sel.Name, true
}
