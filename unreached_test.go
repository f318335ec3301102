package apichecker

import (
	"bufio"
	"go/ast"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoUnreachedExports keeps internal/ free of exported functions and
// methods that only tests call: every one declared in a non-test file
// must be referenced from some non-test .go file in the repository (the
// module, cmd/, examples/ and the bench/ module), or be listed with a
// reason in testdata/unreached.txt. A stale allowlist line — the name is
// gone, or is referenced after all — fails too, so the list cannot rot.
//
// The match is syntactic (go/parser + go/ast, no type information): a
// function pkg.F is reached by the identifier F in its own package or by
// a selector alias.F in a file importing that package; a method T.M is
// reached by any selector .M or by an interface that declares M. Methods
// that share a name with a reached method elsewhere are therefore not
// reported; that imprecision errs towards keeping code.
func TestNoUnreachedExports(t *testing.T) {
	allowed := readUnreachedAllowlist(t, filepath.Join("testdata", "unreached.txt"))

	type decl struct {
		name string // pkg.Func or Type.Method, as the allowlist spells it
		pos  string
	}
	var (
		decls     []decl
		bare      = map[string]map[string]bool{} // package dir → identifiers used unqualified in it
		selectors = map[string]bool{}            // every x.Sel name, any package
		ifaceDecl = map[string]bool{}            // every method name an interface declares
		qualified = map[string]bool{}            // importPath + "." + Sel for alias.Sel
		funcDir   = map[string]string{}          // pkg.Func → package dir
	)

	files, err := repoFiles()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f.test {
			continue
		}
		file, imports := f.ast, f.imports
		dir := path.Dir(f.path)
		if bare[dir] == nil {
			bare[dir] = map[string]bool{}
		}
		skip := map[*ast.Ident]bool{} // declared names and selector fields: not bare uses
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			skip[fn.Name] = true
			if !fn.Name.IsExported() || !strings.HasPrefix(dir, "internal/") {
				continue
			}
			name := file.Name.Name + "." + fn.Name.Name
			if fn.Recv != nil {
				name = receiverName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			} else {
				funcDir[name] = dir
			}
			decls = append(decls, decl{name: name, pos: repoFset.Position(fn.Pos()).String()})
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				skip[n.Sel] = true
				selectors[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						qualified[p+"."+n.Sel.Name] = true
					}
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						ifaceDecl[id.Name] = true
					}
				}
			case *ast.Ident:
				if !skip[n] {
					bare[dir][n.Name] = true
				}
			}
			return true
		})
	}

	reached := func(d decl) bool {
		short := d.name[strings.IndexByte(d.name, '.')+1:]
		if dir, ok := funcDir[d.name]; ok {
			return bare[dir][short] || qualified["apichecker/"+dir+"."+short]
		}
		return selectors[short] || ifaceDecl[short]
	}

	unreached := map[string]string{}
	for _, d := range decls {
		if !reached(d) {
			unreached[d.name] = d.pos
		}
	}
	var names []string
	for name := range unreached {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := allowed[name]; !ok {
			t.Errorf("%s (%s) is exported but reached from no non-test file: delete it, unexport it, or list it with a reason in testdata/unreached.txt",
				name, unreached[name])
		}
	}
	for name := range allowed {
		if _, ok := unreached[name]; !ok {
			t.Errorf("testdata/unreached.txt: stale line %q: no such unreached export", name)
		}
	}
}

// receiverName unwraps *T and T[...] to the receiver's type name.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// readUnreachedAllowlist parses "name  reason" lines; blank lines and
// #-comments are skipped, and a line without a reason is an error.
func readUnreachedAllowlist(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allowed := map[string]string{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, reason, _ := strings.Cut(text, " ")
		if strings.TrimSpace(reason) == "" {
			t.Fatalf("%s:%d: %s has no reason", path, line, name)
		}
		if _, dup := allowed[name]; dup {
			t.Fatalf("%s:%d: %s listed twice", path, line, name)
		}
		allowed[name] = strings.TrimSpace(reason)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allowed
}
