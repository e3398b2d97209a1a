package main

import (
	"bytes"
	"strings"
	"testing"

	"hybridpde/internal/lint"
)

// The driver fixture (testdata/src/driver) carries exactly two stable
// findings: a walltime violation and an unused //pdevet:allow. Driver tests
// pin the pipeline around them: text output and exit status, and the -rule
// filter's effect on unusedallow.

const driverPkg = "testdata/src/driver"

func runDriver(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestTextOutput(t *testing.T) {
	code, out, _ := runDriver(t, driverPkg)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "[walltime]") {
		t.Errorf("missing walltime finding:\n%s", out)
	}
	if !strings.Contains(out, "[unusedallow]") {
		t.Errorf("missing unusedallow finding:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, "cmd/pdevet/testdata/src/driver/driver.go:") {
			t.Errorf("finding %q does not start with the module-relative forward-slash path", line)
		}
	}
}

func TestRuleFilterDisablesUnusedAllow(t *testing.T) {
	// Under -rule, other rules' allows are trivially unused and must not be
	// reported: the floateq allow in the fixture stays silent.
	code, out, _ := runDriver(t, "-rule", "walltime", driverPkg)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "[walltime]") {
		t.Errorf("missing walltime finding:\n%s", out)
	}
	if strings.Contains(out, "unusedallow") {
		t.Errorf("-rule run must not report unusedallow:\n%s", out)
	}
}

func TestCleanTree(t *testing.T) {
	code, out, _ := runDriver(t, "testdata/src/clean")
	if code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, out)
	}
	if out != "" {
		t.Errorf("clean run printed findings:\n%s", out)
	}
}

func TestListAnalyzers(t *testing.T) {
	code, out, _ := runDriver(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, out)
	}
	analyzers := lint.Analyzers()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(analyzers) {
		t.Fatalf("-list printed %d lines for %d analyzers:\n%s", len(lines), len(analyzers), out)
	}
	for i, a := range analyzers {
		if !strings.HasPrefix(lines[i], a.Name+" ") {
			t.Errorf("line %d = %q, want analyzer %s", i, lines[i], a.Name)
		}
	}
}
