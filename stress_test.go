package apichecker

import (
	"fmt"
	"go/ast"
	"os"
	"path"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// stressRunner is the one line of CI's "Race stress" step that runs a row
// of testdata/stress.txt. Besides it, CI runs go test -race only as
// wholeRace.
const (
	stressRunner = `go test -race -count="$count" -run "$run" "$@"`
	wholeRace    = "go test -race ./..."
)

// TestStressTable holds testdata/stress.txt, the race-stress runs CI makes
// in one step, to the code it names and to CI: a row whose pattern names a
// test that is gone, or one that skips itself under -race, claims coverage
// the run does not give. Each "fires" subtest plants one such fault and
// must see it reported.
func TestStressTable(t *testing.T) {
	files, err := repoFiles()
	if err != nil {
		t.Fatal(err)
	}
	table, err := os.ReadFile("testdata/stress.txt")
	if err != nil {
		t.Fatal(err)
	}
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	if bad := stressProblems(string(table), string(ci), files); len(bad) > 0 {
		t.Errorf("testdata/stress.txt or ci.yml:\n\t%s", strings.Join(bad, "\n\t"))
	}
	for _, plant := range []struct{ name, row, ci, want string }{
		{"no-match", "1 NoSuchTestAnywhere ./internal/core/ -- planted", "", "NoSuchTestAnywhere"},
		{"skips-under-race", "10 TestHitAllocBudget ./internal/gateway/ -- planted", "", "TestHitAllocBudget"},
		{"stray-race-line", "", "      - run: go test -race -count=2 ./internal/core/\n", "-count=2"},
	} {
		t.Run("fires/"+plant.name, func(t *testing.T) {
			bad := stressProblems(string(table)+plant.row+"\n", string(ci)+plant.ci, files)
			if !slices.ContainsFunc(bad, func(b string) bool { return strings.Contains(b, plant.want) }) {
				t.Errorf("the planted %q is not reported (got %q)", plant.want, bad)
			}
		})
	}
}

// stressProblems returns what is wrong with table, a stress.txt, and ci, a
// workflow: a malformed row, a pattern alternative that names no Test or
// Fuzz function in the row's packages, a package the pattern matches
// nothing in, a matched test that skips under -race, and a go test -race
// run in ci that is neither wholeRace nor the table's.
func stressProblems(table, ci string, files []*srcFile) []string {
	var bad []string
	for i, line := range strings.Split(table, "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		at := fmt.Sprintf("stress.txt:%d", i+1)
		run, hazard, _ := strings.Cut(line, " -- ")
		f := strings.Fields(run)
		if len(f) < 3 || strings.TrimSpace(hazard) == "" {
			bad = append(bad, at+": want COUNT PATTERN PACKAGES... -- HAZARD")
			continue
		}
		if n, err := strconv.Atoi(f[0]); err != nil || n < 1 {
			bad = append(bad, fmt.Sprintf("%s: count %q is not a positive number", at, f[0]))
		}
		pattern, pkgs := f[1], f[2:]
		tests := make([][]*ast.FuncDecl, len(pkgs)) // each package's Test and Fuzz functions
		for j, pkg := range pkgs {
			dir := strings.Trim(strings.TrimPrefix(pkg, "./"), "/")
			for _, sf := range files {
				if sf.test && path.Dir(sf.path) == dir {
					tests[j] = append(tests[j], testFuncs(sf)...)
				}
			}
			if len(tests[j]) == 0 {
				bad = append(bad, fmt.Sprintf("%s: %s has no tests", at, pkg))
			}
		}
		if pattern == "-" {
			continue
		}
		re, err := regexp.Compile(pattern)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: %v", at, err))
			continue
		}
		for _, alt := range alternatives(pattern) {
			altRe, err := regexp.Compile(alt)
			if err == nil && !slices.ContainsFunc(slices.Concat(tests...), func(fn *ast.FuncDecl) bool { return altRe.MatchString(fn.Name.Name) }) {
				bad = append(bad, fmt.Sprintf("%s: %q names no Test or Fuzz function in %s", at, alt, strings.Join(pkgs, " ")))
			}
		}
		for j, pkg := range pkgs {
			matched := false
			for _, fn := range tests[j] {
				if !re.MatchString(fn.Name.Name) {
					continue
				}
				matched = true
				if skipsUnderRace(fn) {
					bad = append(bad, fmt.Sprintf("%s: %s %s skips under -race, so this row does not run it", at, pkg, fn.Name.Name))
				}
			}
			if !matched && len(tests[j]) > 0 {
				bad = append(bad, fmt.Sprintf("%s: the pattern matches nothing in %s", at, pkg))
			}
		}
	}
	runners := 0
	for i, line := range strings.Split(ci, "\n") {
		if !strings.Contains(line, "go test -race") {
			continue
		}
		cmd := strings.TrimPrefix(strings.TrimSpace(line), "- ")
		switch cmd = strings.TrimSpace(strings.TrimPrefix(cmd, "run:")); cmd {
		case wholeRace:
		case stressRunner:
			runners++
		default:
			bad = append(bad, fmt.Sprintf("ci.yml:%d: %q runs the race detector outside testdata/stress.txt (add a row instead)", i+1, cmd))
		}
	}
	if runners != 1 || !strings.Contains(ci, "testdata/stress.txt") {
		bad = append(bad, fmt.Sprintf("ci.yml: want one step that reads testdata/stress.txt and runs each row as %s", stressRunner))
	}
	return bad
}

// testFuncs returns the Test and Fuzz functions f declares.
func testFuncs(f *srcFile) []*ast.FuncDecl {
	var fns []*ast.FuncDecl
	for _, d := range f.ast.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Body != nil &&
			(strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
			fns = append(fns, fn)
		}
	}
	return fns
}

// skipsUnderRace reports whether fn begins with if raceDetector { ... Skip ... }.
func skipsUnderRace(fn *ast.FuncDecl) bool {
	if len(fn.Body.List) == 0 {
		return false
	}
	st, ok := fn.Body.List[0].(*ast.IfStmt)
	if !ok || !isIdent(st.Cond, "raceDetector") {
		return false
	}
	skips := false
	ast.Inspect(st.Body, func(n ast.Node) bool {
		if s, ok := n.(*ast.SelectorExpr); ok && strings.HasPrefix(s.Sel.Name, "Skip") {
			skips = true
		}
		return !skips
	})
	return skips
}

// alternatives splits pattern at its top-level |s.
func alternatives(pattern string) []string {
	var alts []string
	depth, start := 0, 0
	for i := 0; i < len(pattern); i++ {
		switch pattern[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				alts, start = append(alts, pattern[start:i]), i+1
			}
		}
	}
	return append(alts, pattern[start:])
}
