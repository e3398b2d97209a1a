package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unreadSurface lists the operator-visible names that no reader names and
// that stay anyway: ledger key → reason. A metric's or route's reason is
// the operator question it answers, so it ends in "?"; a flag's is the
// deployment resource it bounds, so it starts with "bounds ".
var unreadSurface = map[string]string{
	"/debug/pprof/":        "why is this backend slow: which profiles can I pull from its loopback debug listener?",
	"/debug/pprof/cmdline": "which command line is this backend process actually running?",
	"/debug/pprof/profile": "why is this backend slow: where does its CPU time go?",
	"/debug/pprof/symbol":  "which functions do the addresses in a pulled profile belong to?",
	"/debug/pprof/trace":   "why is this backend slow: what are its goroutines waiting on (scheduler, GC, syscalls)?",

	"pdeserved -cache-size":    "bounds the solve cache's memory: the entries it holds before evicting",
	"pdeserved -chaos-spec":    "bounds a chaos drill: the fault classes injected into every worker accelerator",
	"pdeserved -drain-timeout": "bounds how long a shutdown (and a rolling deploy) waits for admitted solves",
	"pdeserved -max-grid":      "bounds each solve's CPU and memory: the largest grid (2·n² unknowns) a request may ask for",
	"pdeserved -max-timeout":   "bounds how long a client-supplied deadline may hold a worker",
	"pdeserved -queue":         "bounds admitted-but-waiting requests, and so queue memory and wait, before 429",
	"pdeserved -retries":       "bounds the extra solve work one request may cost: retries of transiently failed solves",
	"pdeserved -timeout":       "bounds how long a request without deadline_ms may hold a worker",
	"pdegw -batch-window":      "bounds the latency a request may spend waiting in a same-shape window",
	"pdegw -drain-timeout":     "bounds how long a gateway shutdown waits for relayed requests",
	"pdegw -max-batch":         "bounds the requests one window ships to one backend at once",
	"pdegw -max-grid":          "bounds the grid size routed to backends (mirrors their -max-grid)",
	"pdegw -max-timeout":       "bounds how long a client-supplied deadline may hold the gateway and a backend",
	"pdegw -retry-budget":      "bounds failover amplification: the retry tokens each primary dispatch earns",
	"pdegw -retry-budget-max":  "bounds a failover burst: the retry tokens the gateway may hold and starts with",
	"pdegw -timeout":           "bounds how long a request without deadline_ms may hold the gateway and a backend",
}

// Surface kinds.
const (
	kindMetric = "metric"
	kindRoute  = "route"
	kindFlag   = "flag"
	kindField  = "field"
)

// surfaceItem is one name an operator sees: a metric family on a /metrics
// page, an HTTP route, a command-line flag or a field of a service Config.
type surfaceItem struct {
	kind string
	key  string // ledger key: the family, the path, "cmd -flag" or "pkg.Config.Field"
	name string // what a reader must mention: the family, the path, "-flag" or "Field:"
	home string // field only: the declaring package's directory
}

// sourceFile is one file of the tree the guard reads.
type sourceFile struct {
	path, dir string
	test      bool // a _test.go file
	goFile    bool
	text      string
}

// reader reports whether f counts as a reader of a metric, route or flag: a
// _test.go file, a bench/ file, a smoke script, the Makefile or a CI
// workflow.
func (f sourceFile) reader() bool {
	return f.test || f.dir == "bench" || f.dir == "scripts" || f.path == "Makefile" ||
		strings.HasPrefix(f.path, ".github/workflows/")
}

// readsField reports whether f counts as a reader of a Config field: any Go
// file but the declaring package's own non-test files.
func (f sourceFile) readsField(home string) bool {
	return f.goFile && (f.test || f.dir != home)
}

var metricMention = regexp.MustCompile(`pde(?:serve|gw)_\w*`)

// familyOf strips a histogram's series suffix from a mentioned metric name.
func familyOf(name string) string {
	for _, s := range []string{"_bucket", "_sum", "_count"} {
		if f, ok := strings.CutSuffix(name, s); ok {
			return f
		}
	}
	return name
}

// routeNamed reports whether text names path: not followed by more path,
// and not the tail of a package path such as internal/cluster.
func routeNamed(text, path string) bool {
	for i := 0; ; {
		j := strings.Index(text[i:], path)
		if j < 0 {
			return false
		}
		at, end := i+j, i+j+len(path)
		if !strings.HasSuffix(text[:at], "internal") && (end == len(text) || !isPathByte(text[end])) {
			return true
		}
		i = at + 1
	}
}

func isPathByte(b byte) bool {
	return b == '/' || b == '-' || b == '_' || b == '.' ||
		'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z' || '0' <= b && b <= '9'
}

// surfaceFindings checks items against the files' readers and the ledger.
// It returns one message per item no reader names and the ledger does not
// list (or that is read and still listed), per ledger entry that names no
// item or gives no reason of the right shape, and per metric name a reader
// mentions that nothing emits (a stale grep reads 0 without failing).
func surfaceFindings(items []surfaceItem, files []sourceFile, ledger map[string]string) []string {
	var out []string
	keys := map[string]string{} // ledger key → kind
	families := map[string]bool{}
	for _, it := range items {
		keys[it.key] = it.kind
		if it.kind == kindMetric {
			families[it.name] = true
		}
	}
	mentioned := map[string]bool{} // metric families some reader names
	for _, f := range files {
		if !f.reader() {
			continue
		}
		for _, m := range metricMention.FindAllString(f.text, -1) {
			fam := familyOf(m)
			mentioned[fam] = true
			if families[fam] {
				continue
			}
			prefix := false // a diagnostic grep for a family prefix
			for known := range families {
				prefix = prefix || strings.HasPrefix(known, m)
			}
			if !prefix {
				out = append(out, fmt.Sprintf("%s mentions metric %s, which nothing emits", f.path, m))
			}
		}
	}
	for _, it := range items {
		read := it.kind == kindMetric && mentioned[it.name]
		var word *regexp.Regexp
		switch it.kind {
		case kindFlag:
			word = regexp.MustCompile(`(?:^|[^\w-])` + regexp.QuoteMeta(it.name) + `(?:[^\w-]|$)`)
		case kindField:
			word = regexp.MustCompile(`\b` + regexp.QuoteMeta(it.name))
		}
		for _, f := range files {
			if read || it.kind == kindMetric {
				break
			}
			if !strings.Contains(f.text, it.name) {
				continue
			}
			switch it.kind {
			case kindRoute:
				read = f.reader() && routeNamed(f.text, it.name)
			case kindFlag:
				read = f.reader() && word.MatchString(f.text)
			case kindField:
				read = f.readsField(it.home) && word.MatchString(f.text)
			}
		}
		_, listed := ledger[it.key]
		switch {
		case read && listed:
			out = append(out, fmt.Sprintf("%s %s is read; drop its unreadSurface entry", it.kind, it.key))
		case !read && !listed:
			out = append(out, fmt.Sprintf("%s %s has no reader (test, bench, script, Makefile or CI); delete it or list it in unreadSurface with its reason", it.kind, it.key))
		}
	}
	for key, why := range ledger {
		kind, ok := keys[key]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("unreadSurface lists %s, which the tree no longer has", key))
		case (kind == kindMetric || kind == kindRoute) && !strings.HasSuffix(why, "?"):
			out = append(out, fmt.Sprintf("unreadSurface: %s %s needs the operator question it answers, ending in ?", kind, key))
		case (kind == kindFlag || kind == kindField) && !strings.HasPrefix(why, "bounds "):
			out = append(out, fmt.Sprintf("unreadSurface: %s %s needs the deployment resource it bounds, starting \"bounds \"", kind, key))
		}
	}
	sort.Strings(out)
	return out
}

// TestOperatorSurfaceHasReaders keeps what an operator sees at what someone
// checks, the way TestInternalExportsHaveCallers does for Go exports: every
// pdeserve_*/pdegw_* family passed to a promtext.Write* call, every
// HandleFunc route of the solve service and the gateway, every flag of the
// commands and every field of serve.Config and cluster.Config must be named
// by a _test.go file, a bench/ file, a smoke script, the Makefile or CI (a
// flag as -name; a Config field as "Field:" anywhere but its own package's
// non-test files), or be listed in unreadSurface. In the other direction,
// every metric name those readers mention must still be emitted.
// Name-based on purpose: go/parser and text scans, no types.
func TestOperatorSurfaceHasReaders(t *testing.T) {
	files, err := readTree(".")
	if err != nil {
		t.Fatal(err)
	}
	items, err := operatorSurface(files)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range surfaceFindings(items, files, unreadSurface) {
		t.Error(msg)
	}
}

// TestSurfaceFindings runs the matcher on a synthetic tree: each way an item
// can be read passes, and each way the guard can fail is reported.
func TestSurfaceFindings(t *testing.T) {
	items := []surfaceItem{
		{kind: kindMetric, key: "pdegw_read_total", name: "pdegw_read_total"},
		{kind: kindMetric, key: "pdegw_size", name: "pdegw_size"},
		{kind: kindMetric, key: "pdegw_unread_total", name: "pdegw_unread_total"},
		{kind: kindMetric, key: "pdegw_listed_total", name: "pdegw_listed_total"},
		{kind: kindRoute, key: "/cluster", name: "/cluster"},
		{kind: kindRoute, key: "/livez", name: "/livez"},
		{kind: kindFlag, key: "pdegw -seed", name: "-seed"},
		{kind: kindFlag, key: "pdegw -seed-gate", name: "-seed-gate"},
		{kind: kindField, key: "cluster.Config.Window", name: "Window:", home: "internal/cluster"},
		{kind: kindField, key: "cluster.Config.Batch", name: "Batch:", home: "internal/cluster"},
	}
	files := []sourceFile{
		{path: "internal/cluster/gateway.go", dir: "internal/cluster", goFile: true,
			text: `Config{Window: 1} // pdegw_unread_total, GET /livez, -seed`},
		{path: "internal/cluster/gateway_test.go", dir: "internal/cluster", goFile: true, test: true,
			text: `import "hybridpde/internal/cluster"; scrape("pdegw_read_total"); sum("pdegw_size_sum"); stale("pdegw_gone_total"); Config{Batch: 2}`},
		{path: "scripts/smoke.sh", dir: "scripts",
			text: "pdegw -seed-gate 2 && curl \"$GW/livez\" | grep '^pdegw_'; go test ./internal/cluster/"},
	}
	ledger := map[string]string{
		"pdegw_listed_total": "is it listed?",
		"pdegw_read_total":   "is it read?",
		"pdegw_dropped":      "was it deleted?",
		"pdegw -seed":        "the seed",
	}
	want := []string{
		"field cluster.Config.Window has no reader (test, bench, script, Makefile or CI); delete it or list it in unreadSurface with its reason",
		"internal/cluster/gateway_test.go mentions metric pdegw_gone_total, which nothing emits",
		"metric pdegw_read_total is read; drop its unreadSurface entry",
		"metric pdegw_unread_total has no reader (test, bench, script, Makefile or CI); delete it or list it in unreadSurface with its reason",
		"route /cluster has no reader (test, bench, script, Makefile or CI); delete it or list it in unreadSurface with its reason",
		"unreadSurface lists pdegw_dropped, which the tree no longer has",
		`unreadSurface: flag pdegw -seed needs the deployment resource it bounds, starting "bounds "`,
	}
	got := surfaceFindings(items, files, ledger)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// readTree loads every Go file, smoke script, the Makefile and the CI
// workflows, skipping testdata and this file (its ledger names everything).
func readTree(root string) ([]sourceFile, error) {
	var files []sourceFile
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if d.IsDir() {
			if n := d.Name(); n == "testdata" || (path != "." && path != ".github" && strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		goFile := strings.HasSuffix(path, ".go")
		if path == "surface_test.go" || !(goFile || strings.HasSuffix(path, ".sh") || path == "Makefile" ||
			strings.HasPrefix(path, ".github/workflows/")) {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files = append(files, sourceFile{
			path: path, dir: filepath.ToSlash(filepath.Dir(path)),
			test: strings.HasSuffix(path, "_test.go"), goFile: goFile, text: string(b),
		})
		return nil
	})
	return files, err
}

// configHomes are the packages whose Config is operator surface.
var configHomes = map[string]string{"internal/serve": "serve", "internal/cluster": "cluster"}

// muxFiles hold the solve service's and the gateway's HandleFunc routes.
var muxFiles = map[string]bool{"internal/serve/serve.go": true, "internal/cluster/gateway.go": true}

// flagDefiners are the flag package's (and a FlagSet's) defining calls.
var flagDefiners = map[string]bool{"Bool": true, "Duration": true, "Float64": true, "Int": true,
	"Int64": true, "String": true, "Uint": true, "Uint64": true}

// operatorSurface enumerates the surface from the non-test Go files of
// internal/ and cmd/.
func operatorSurface(files []sourceFile) ([]surfaceItem, error) {
	fset := token.NewFileSet()
	parsed := map[string]*ast.File{}
	consts := map[string]string{} // string constants by name, for route patterns
	for _, f := range files {
		if !f.goFile || f.test || !(strings.HasPrefix(f.dir, "internal/") || strings.HasPrefix(f.dir, "cmd/")) {
			continue
		}
		af, err := parser.ParseFile(fset, f.path, f.text, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		parsed[f.path] = af
		for _, d := range af.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.CONST {
				for _, s := range gd.Specs {
					vs := s.(*ast.ValueSpec)
					for i, n := range vs.Names {
						if v, ok := constString(valueAt(vs.Values, i), nil); ok {
							consts[n.Name] = v
						}
					}
				}
			}
		}
	}
	var items []surfaceItem
	seen := map[string]bool{}
	add := func(it surfaceItem) {
		if !seen[it.key] {
			seen[it.key] = true
			items = append(items, it)
		}
	}
	for path, af := range parsed {
		dir := filepath.ToSlash(filepath.Dir(path))
		var err error
		ast.Inspect(af, func(n ast.Node) bool {
			if err != nil {
				return false
			}
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if pkg := configHomes[dir]; ok && pkg != "" && n.Name.Name == "Config" {
					for _, fld := range st.Fields.List {
						for _, id := range fld.Names {
							add(surfaceItem{kindField, pkg + ".Config." + id.Name, id.Name + ":", dir})
						}
					}
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || len(n.Args) == 0 {
					return true
				}
				x, _ := sel.X.(*ast.Ident)
				switch {
				case x != nil && x.Name == "promtext" && strings.HasPrefix(sel.Sel.Name, "Write") && len(n.Args) > 1:
					if name, ok := constString(n.Args[1], nil); ok && metricMention.MatchString(name) {
						add(surfaceItem{kind: kindMetric, key: name, name: name})
					}
				case strings.HasPrefix(dir, "cmd/") && filepath.Base(path) == "main.go" && flagDefiners[sel.Sel.Name]:
					if name, ok := constString(n.Args[0], nil); ok {
						add(surfaceItem{kind: kindFlag, key: filepath.Base(dir) + " -" + name, name: "-" + name})
					}
				case muxFiles[path] && sel.Sel.Name == "HandleFunc":
					pattern, ok := constString(n.Args[0], consts)
					if !ok {
						err = fmt.Errorf("%s: a route pattern the guard cannot fold to a constant", fset.Position(n.Pos()))
						return false
					}
					route := pattern[strings.Index(pattern, "/"):] // drop the method
					add(surfaceItem{kind: kindRoute, key: route, name: route})
				}
			}
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].key < items[j].key })
	return items, nil
}

func valueAt(values []ast.Expr, i int) ast.Expr {
	if i < len(values) {
		return values[i]
	}
	return nil
}

// constString folds a constant string expression: literals, string(...)
// conversions, + and named string constants (qualified or not).
func constString(e ast.Expr, consts map[string]string) (string, bool) {
	switch e := e.(type) {
	case *ast.BasicLit:
		if e.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(e.Value)
		return s, err == nil
	case *ast.BinaryExpr:
		a, ok1 := constString(e.X, consts)
		b, ok2 := constString(e.Y, consts)
		return a + b, ok1 && ok2 && e.Op == token.ADD
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "string" && len(e.Args) == 1 {
			return constString(e.Args[0], consts)
		}
	case *ast.Ident:
		v, ok := consts[e.Name]
		return v, ok
	case *ast.SelectorExpr:
		v, ok := consts[e.Sel.Name]
		return v, ok
	}
	return "", false
}
