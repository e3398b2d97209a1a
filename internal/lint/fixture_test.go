package lint

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// The fixtures under testdata/src/<rule>/ encode expectations in-line:
// every line carrying a trailing `// want` marker must produce a finding of
// the rule under test, every other line must stay clean, and every fixture
// contains at least one //pdevet:allow annotation whose suppression the
// test verifies by comparing raw (unfiltered) and surviving finding counts.

func TestNoAllocFixture(t *testing.T)    { testFixture(t, "noalloc") }
func TestSeededRandFixture(t *testing.T) { testFixture(t, "seededrand") }
func TestWallTimeFixture(t *testing.T)   { testFixture(t, "walltime") }
func TestFloatEqFixture(t *testing.T)    { testFixture(t, "floateq") }
func TestCtxCheckFixture(t *testing.T)   { testFixture(t, "ctxcheck") }
func TestErrDropFixture(t *testing.T)    { testFixture(t, "errdrop") }
func TestLockNestFixture(t *testing.T)   { testFixture(t, "locknest") }
func TestGoroutineFixture(t *testing.T)  { testFixture(t, "goroutine") }
func TestMapRangeFixture(t *testing.T)   { testFixture(t, "maprange") }

// TestLoadHonoursBuildConstraints loads a package whose two files each
// declare width, one for amd64 by file name and one for every other
// architecture by //go:build line: only the file the go command builds here
// may be type-checked, or width is declared twice.
func TestLoadHonoursBuildConstraints(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load(filepath.Join("testdata", "src", "buildtags"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range pkg.Files {
		names = append(names, filepath.Base(pkg.Fset.File(f.Pos()).Name()))
	}
	want := "width_other.go"
	if runtime.GOARCH == "amd64" {
		want = "width_amd64.go"
	}
	if len(names) != 2 || names[0] != "buildtags.go" || names[1] != want {
		t.Fatalf("loaded %v, want [buildtags.go %s]", names, want)
	}
}

func testFixture(t *testing.T, rule string) {
	t.Helper()
	a, ok := AnalyzerByName(rule)
	if !ok {
		t.Fatalf("unknown rule %q", rule)
	}
	dir := filepath.Join("testdata", "src", rule)
	want, annotations := scanFixture(t, dir)
	if len(want) == 0 {
		t.Fatalf("%s: fixture has no `// want` markers", dir)
	}
	if annotations == 0 {
		t.Fatalf("%s: fixture has no //pdevet:allow annotation", dir)
	}

	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load(dir)
	if err != nil {
		t.Fatal(err)
	}

	kept := AnalyzePackage(pkg, []*Analyzer{a}).Diags
	if len(kept) == 0 {
		t.Fatalf("%s: fixture produced no findings", rule)
	}
	got := map[string]bool{}
	for _, d := range kept {
		key := filepath.Base(d.Pos.Filename) + ":" + strconv.Itoa(d.Pos.Line)
		if got[key] {
			continue // several findings on one marked line are fine
		}
		got[key] = true
		if !want[key] {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for key := range want {
		if !got[key] {
			t.Errorf("%s: line marked `// want` but no %s finding reported", key, rule)
		}
	}

	// The allow annotations must be doing real work: running the analyzer
	// without the annotation filter has to surface strictly more findings.
	var raw []Diagnostic
	a.Run(&Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		Path:     pkg.Path,
		diags:    &raw,
	})
	if len(raw) <= len(kept) {
		t.Errorf("//pdevet:allow suppressed nothing: %d raw finding(s), %d after filtering", len(raw), len(kept))
	}
}

// scanFixture reads the fixture's Go files and returns the set of
// "file.go:line" keys carrying a trailing `// want` marker, plus the number
// of //pdevet:allow annotations present.
func scanFixture(t *testing.T, dir string) (map[string]bool, int) {
	t.Helper()
	names, err := goFileNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	annotations := 0
	for _, name := range names {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			if strings.Contains(text, "// want") {
				want[name+":"+strconv.Itoa(line)] = true
			}
			if strings.Contains(text, "//pdevet:allow") {
				annotations++
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return want, annotations
}
