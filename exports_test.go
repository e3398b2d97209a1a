package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// keptAsOracle lists the exported internal/ symbols that nothing outside
// their own package's tests names and that stay anyway: name → the test that
// needs it, or why it is not this test's to delete.
var keptAsOracle = map[string]string{
	// Dense references the band and CSR kernels are checked against.
	"SolveDense":   "la: TestBandLUMatchesDenseLU, TestPropertyBandEqualsDense, TestFactorNormalFromMatchesDense",
	"Mul":          "la: TestFactorNormalFromMatchesDense forms the dense JᵀJ with it",
	"Transpose":    "la: TestFactorNormalFromMatchesDense (Dense), TestPropertyTransposeAdjoint and FuzzCSR (CSR)",
	"Identity":     "la: TestDenseMulIdentity, the reference for Mul",
	"NewDenseFrom": "la: literal matrices of TestLUSolveKnownSystem and the pivoting/singular LU tests",
	// ode.RK4 is analog's TestMethodOfLinesDiffusionDecay reference; the
	// rest of the fixed-step family shares its stepper and order tests.
	"Euler": "ode: TestEulerFirstOrderAccuracy, TestNonFiniteStateDetected, TestFixedStepValidation",
	"Heun":  "ode: TestHeunSecondOrderAccuracy",
	// Called through errors.Is/As, never by name.
	"Unwrap": "nonlin: TestNewtonSingularJacobianReported reaches la.ErrSingular through it",
	// Forces the red-black sweep onto a chosen accelerator count: one gives
	// the serial reference the parallel sweep is compared against.
	"DecomposedSeeder": "core: TestParallelDecompositionMatchesSerial",
	// The seeded instance generator of the 1-D kind's own tests, the way
	// RandomBurgers is for the experiments.
	"RandomBurgers1D": "pde: TestBurgers1DJacobianMatchesFD, TestBurgers1DNewtonSolve",
	// What the Table 1 profiler's tests observe the accumulated state through.
	"Total":    "prof: TestSectionAccumulates, TestEmptyProfile, TestSectionTimesFunction, TestConcurrentUse",
	"Sections": "prof: TestSectionsOrderAndString (first-use order), TestConcurrentUse",
	// Called by go/types through the types.Importer interface, never by name.
	"Import": "lint: every fixture test type-checks its package through moduleImporter",
}

// TestInternalExportsHaveCallers keeps the inventory at what runs: every
// exported top-level func or method of an internal/ package must be named,
// apart from its own declaration, in a non-test file (anywhere in the tree,
// bench/ included) or in a _test.go of a different package; the rest must
// be in keptAsOracle. Name-based on purpose: go/parser only, no types.
func TestInternalExportsHaveCallers(t *testing.T) {
	type decl struct{ name, dir, file string }
	var decls []decl
	used := map[string]bool{}                // names some non-test file mentions
	testUses := map[string]map[string]bool{} // name → dirs whose _test.go mention it
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); n == "testdata" || (n != "." && strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		isTest := strings.HasSuffix(path, "_test.go")
		declNames := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				declNames[fd.Name] = true
				if strings.HasPrefix(dir, "internal/") && !isTest && fd.Name.IsExported() {
					decls = append(decls, decl{fd.Name.Name, dir, path})
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			switch {
			case !ok || declNames[id]:
			case !isTest:
				used[id.Name] = true
			default:
				if testUses[id.Name] == nil {
					testUses[id.Name] = map[string]bool{}
				}
				testUses[id.Name][dir] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.name] = true
		foreign := len(testUses[d.name]) // packages other than d's whose tests mention it
		if testUses[d.name][d.dir] {
			foreign--
		}
		if used[d.name] || foreign > 0 {
			continue
		}
		if _, ok := keptAsOracle[d.name]; !ok {
			t.Errorf("%s: exported %s has no caller outside its own package's tests; delete it or list it in keptAsOracle", d.file, d.name)
		}
	}
	for name := range keptAsOracle {
		if !declared[name] {
			t.Errorf("keptAsOracle lists %s, which no internal/ package declares any more", name)
		}
	}
}
