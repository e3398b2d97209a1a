// Command pdevet runs the repository's custom static-analysis pass: nine
// project-specific rules (internal/lint) that turn the numerical, hot-path
// and concurrency conventions of the hybrid solver — reproducible
// randomness, simulated-time-only accounting, allocation-free stepping,
// tolerance-based float comparison, context discipline, no swallowed
// errors, no nested locks, lifecycle-tied goroutines, sorted map iteration
// at deterministic outputs — into machine-checked invariants. Pure standard
// library: go/ast + go/types with a source importer, no golang.org/x/tools.
//
// Usage:
//
//	pdevet [-rule name] [-list] [packages]
//
// Package patterns are directories relative to the current module; `...`
// walks subtrees (default `./...`). Findings print one per line as
// `file:line:col: [rule] message` with module-relative paths. Exit status:
// 0 clean, 1 findings, 2 usage or load failure.
//
// Findings are suppressed in source with `//pdevet:allow <rule> [reason]`
// annotations; hot-path functions opt into the allocation rule with
// `//pdevet:noalloc`. When the full rule set runs, allow annotations that
// suppress nothing are themselves reported (rule `unusedallow`), so
// suppressions cannot outlive the code they excused. See DESIGN.md "Static
// analysis".
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"hybridpde/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable driver body; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pdevet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rule := fs.String("rule", "", "run a single analyzer by name (disables unusedallow reporting)")
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *rule != "" {
		a, ok := lint.AnalyzerByName(*rule)
		if !ok {
			fmt.Fprintf(stderr, "pdevet: unknown rule %q (try -list)\n", *rule)
			return 2
		}
		analyzers = []*lint.Analyzer{a}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		return fatal(stderr, err)
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		return fatal(stderr, err)
	}
	dirs, err := loader.Expand(cwd, patterns)
	if err != nil {
		return fatal(stderr, err)
	}
	if len(dirs) == 0 {
		return fatal(stderr, fmt.Errorf("no packages match %v", patterns))
	}

	root := loader.ModuleRoot()
	findings := 0
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			return fatal(stderr, err)
		}
		res := lint.AnalyzePackage(pkg, analyzers)
		for _, d := range append(res.Diags, res.Unused...) {
			// Module-relative paths keep output stable across checkouts
			// and let CI problem matchers anchor annotations.
			d.Pos.Filename = relPath(root, d.Pos.Filename)
			fmt.Fprintln(stdout, d)
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(stderr, "pdevet: %d finding(s)\n", findings)
		return 1
	}
	return 0
}

// relPath relativizes an absolute diagnostic path against the module root,
// with forward slashes; paths outside the root are kept absolute.
func relPath(root, path string) string {
	rel, err := filepath.Rel(root, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(path)
	}
	return filepath.ToSlash(rel)
}

func fatal(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "pdevet:", err)
	return 2
}
