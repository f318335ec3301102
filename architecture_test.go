package apichecker

import (
	"go/ast"
	"go/parser"
	"go/token"
	gotypes "go/types"
	"io/fs"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestArchitecture holds the shape the design depends on, one row per rule:
// a name, the reason a violation is reported with, a check, and a planted
// violation that the row's "fires" subtest requires it to report. Source
// checks match code, never comments (only literal reads strings and tags),
// resolving selectors through each file's import names; closure checks read
// `go list -deps`. A change that pins a new rule adds a row.
func TestArchitecture(t *testing.T) {
	rows := []struct {
		name, reason string
		check        archCheck
		plant        string // "path: source" of a file, or a package added to every listed closure
	}{
		{"recover", "recover() outside internal/worker and vcache's singleflight (let the executor isolate the panic)",
			source(outside("internal/worker", "internal/vcache/vcache.go"), callNoArgs("recover")), "internal/core/p.go: package core; func f() { recover() }"},
		{"ticker", "time.NewTicker in internal/worker or internal/cluster (heartbeats run on the lane's one timer)",
			source(in("internal/worker", "internal/cluster"), sel("time", "NewTicker")), `internal/cluster/p.go: package cluster; import clock "time"; var t = clock.NewTicker`},
		{"lease-lost-cause", "ErrLeaseLost passed as a cancel cause outside internal/worker (the executor's heartbeat is the one place a lost lease cancels a vet)",
			source(outside("internal/worker"), soleArg("apichecker/internal/workqueue", "ErrLeaseLost")), `internal/vetsvc/p.go: package vetsvc; import q "apichecker/internal/workqueue"; func f(c func(error)) { c(q.ErrLeaseLost) }`},
		{"cmd-links-adb", "a binary under cmd/ links internal/adb again (the vet path emulates through ModelGen.Run)",
			links("./cmd/...", "apichecker/internal/adb"), "apichecker/internal/adb"},
		{"internal-imports-adb", "non-test files under internal/ import internal/adb",
			source(scope{in: []string{"internal"}, except: []string{"internal/adb"}}, imports("apichecker/internal/adb")), `internal/core/p.go: package core; import _ "apichecker/internal/adb"`},
		{"gateway-go", "go statement in internal/gateway non-test code (read the ticket instead of mirroring it)",
			source(in("internal/gateway"), goStmt), "internal/gateway/p.go: package gateway; func f() { go f() }"},
		{"binary-reads", "binary reads outside internal/wire and internal/framelog (read through wire.Reader)",
			source(outside("internal/wire", "internal/framelog"), sel("encoding/binary", "LittleEndian.Uint*", "BigEndian.Uint*", "Uvarint")), `internal/dex/p.go: package dex; import bin "encoding/binary"; var x = bin.LittleEndian.Uint32(nil)`},
		{"cluster-json", "non-test files in internal/cluster import encoding/json (the cluster wire is binary)",
			source(in("internal/cluster"), imports("encoding/json")), `internal/cluster/p.go: package cluster; import "encoding/json"`},
		{"coordinator-timeout", "coordinator.go builds a context.WithTimeout (pass the slice deadline to workqueue.ClaimWhere as until)",
			source(in("internal/cluster/coordinator.go"), sel("context", "WithTimeout")), `internal/cluster/coordinator.go: package cluster; import c "context"; var f = c.WithTimeout`},
		{"modelstore-reflect", "internal/modelstore or internal/core imports reflect (the artifact codec is a field list on internal/wire)",
			source(in("internal/modelstore", "internal/core"), imports("reflect")), `internal/core/p.go: package core; import "reflect"`},
		{"model-identity", "internal/core declares ModelParts.Digest or Checker.SwapModelBand again (a generation's digest is its artifact bytes' sha256, computed in newGeneration; Adopt installs an artifact whole)",
			source(in("internal/core"), declares("ModelParts.Digest", "Checker.SwapModelBand")), "internal/core/p.go: package core; type ModelParts struct { Digest string }"},
		{"persist-export-key", "internal/core keys the persist log on an export: hash again (the key is model: and the generation's digest)",
			source(in("internal/core"), literal("export:")), `internal/core/p.go: package core; const k = "export:"`},
		{"artifact-tag", "non-test code carries an artifact struct tag (list the field in its type's Fields instead)",
			source(scope{}, literal(`artifact:"`)), "internal/core/p.go: package core; type T struct { X int `artifact:\"x\"` }"},
		{"worker-configure", "cluster.WorkerConfig has a Configure field (a node's only setting is its VerdictCache)",
			source(in("internal/cluster"), declares("WorkerConfig.Configure")), "internal/cluster/p.go: package cluster; type WorkerConfig struct { Configure func() }"},
		{"cluster-seq-map", "internal/cluster keeps a map by seq (resolve a wire claim's workqueue.LeaseID through vetsvc.Remote instead)",
			source(in("internal/cluster"), mapKey("int64")), "internal/cluster/p.go: package cluster; var m map[int64]bool"},
		{"one-cluster-route", "non-test internal/cluster names the heartbeat or model route again (heartbeats and model pulls are frames on the lane's claim stream, the one route Mount registers)",
			source(in("internal/cluster"), literal("/v1/cluster/heartbeat"), literal("/v1/model/")), `internal/cluster/p.go: package cluster; const PathModel = "/v1/model/"`},
		{"gateway-seq-route", "internal/gateway keeps a map by seq, reserves a vet seq or registers an obs sink (spans reach a record through Submission.Trace; vetsvc reserves the seq)",
			source(in("internal/gateway"), mapKey("int64"), ident("ReserveVetSeqs"), ident("AddSink")), "internal/gateway/p.go: package gateway; func f(s interface{ ReserveVetSeqs(int) int64 }) { s.ReserveVetSeqs(1) }"},
		{"service-settle-paths", "vetsvc.Service hands out its queue or a second settle path (remote claims go through Service.Remote)",
			source(in("internal/vetsvc"), declares("Service.Queue", "Service.MarkStarted", "Service.ReportRemote")), "internal/vetsvc/p.go: package vetsvc; func (*Service) MarkStarted() {}"},
		{"cluster-reclaims", "a cluster.reclaims counter is back (reclaims are the queue's: svc.queue.reclaimed)",
			source(scope{}, literal("cluster.reclaims")), `internal/cluster/p.go: package cluster; const c = "cluster.reclaims"`},
		{"stage-engine", "internal/pipeline declares a stage engine again (call the stage functions from Deps.Vet or Answer)",
			source(in("internal/pipeline"), declares("Stage", "Runner", "Wrapper", "VetChain", "HitChain", "RunChain")), "internal/pipeline/p.go: package pipeline; type Stage interface{}"},
		{"cache-slots", "non-test internal/vcache imports container/list again (entries live in the shard's slot array, linked by int32 indices, so a store allocates nothing)",
			source(in("internal/vcache"), imports("container/list")), `internal/vcache/p.go: package vcache; import "container/list"`},
		{"one-cache-write", "an always-emulate driver or a second cache write path is back (VetRun rides Deps.Vet; a verdict is stored by Cache.Do alone)",
			source(scope{}, declares("Deps.Run", "Deps.store", "Cache.TryPut", "ModelGen.Epoch"), ident("StageCacheStore"), ident("CachedVerdict")),
			"internal/vcache/p.go: package vcache; func (c *Cache[V]) TryPut() {}"},
		{"vetcontext-spans", "pipeline.VetContext has a Spans field again (spans go to the obs collector; attach a sink to read them)",
			source(in("internal/pipeline"), declares("VetContext.Spans")), "internal/pipeline/p.go: package pipeline; type VetContext struct { Spans []int }"},
		{"core-generation", "internal/core declares its own generation record (the serving generation is a pipeline.ModelGen)",
			source(in("internal/core"), declares("generation")), "internal/core/p.go: package core; type generation struct{}"},
		{"submission-payloads", "internal/pipeline declares a parsed-APK payload or view again (a submission is a raw archive or a program; decode leaves vc.Manifest and vc.Program)",
			source(in("internal/pipeline"), declares("Submission.Parsed", "VetContext.Parsed")), "internal/pipeline/p.go: package pipeline; type VetContext struct { Parsed *int }"},
		{"hook-callbacks", "internal/hook declares a callback table or internal/emulator hands out its profile or registry again (a registry is immutable once NewRegistry returns; hardening is Profile.Hardened)",
			source(in("internal/hook", "internal/emulator"), declares("Registry.OnInvoke", "Callback", "Invocation.Tampered", "Emulator.Profile", "Emulator.Registry")), "internal/hook/p.go: package hook; func (r *Registry) OnInvoke() {}"},
		{"one-sgd-loop", "internal/ml declares LogRegConfig again (LogReg trains through TrainLinear under a LinearConfig)",
			source(in("internal/ml"), declares("LogRegConfig")), "internal/ml/p.go: package ml; type LogRegConfig struct{}"},
		{"second-config", "a second config or a service event mirror is back (bind flags into each layer's Config; attach an obs sink to svc.Obs())",
			source(scope{}, declares("ServeConfig", "EventType"), ident("OnEvent"), sel("apichecker/internal/vetsvc", "DefaultConfig")), `cmd/tmarket/p.go: package main; import svc "apichecker/internal/vetsvc"; var c = svc.DefaultConfig`},
		{"vetsvc-default-config", "vetsvc declares a DefaultConfig again (the zero Config is the production deployment)",
			source(in("internal/vetsvc"), declares("DefaultConfig")), "internal/vetsvc/p.go: package vetsvc; func DefaultConfig() {}"},
		{"gateway-caps", "gateway.Config has a MaxWait or RetryAfter field again (they are the constants maxWait and minRetryAfter)",
			source(in("internal/gateway"), declares("Config.MaxWait", "Config.RetryAfter")), "internal/gateway/p.go: package gateway; type Config struct { RetryAfter int }"},
		{"coordinator-max-poll", "cluster.CoordinatorConfig has a MaxPoll field again (it is the constant maxPoll)",
			source(in("internal/cluster"), declares("CoordinatorConfig.MaxPoll")), "internal/cluster/p.go: package cluster; type CoordinatorConfig struct { MaxPoll int }"},
		{"flate-reads", "compress/flate reads in non-test code outside internal/apk/apktest and bench/ (apk inflates into the arena itself)",
			source(outside("internal/apk/apktest", "bench"), sel("compress/flate", "NewReader", "NewReaderDict")), `internal/apk/p.go: package apk; import f "compress/flate"; var r = f.NewReader`},
		{"zip-reads", "archive/zip reads in non-test code (read through apk.Open)",
			source(outside("internal/apk/apktest"), sel("archive/zip", "NewReader", "OpenReader"), callNoArgs("Open")), `internal/apk/p.go: package apk; import z "archive/zip"; var r = z.NewReader`},
		{"gob", "internal/behavior or a serving binary depends on encoding/gob again",
			links("./internal/behavior ./cmd/tmarket ./cmd/vetworker ./cmd/vetload", "encoding/gob"), "encoding/gob"},
		{"vetworker-links", "cmd/vetworker links packages a worker node never runs (import internal/cluster and internal/core directly)",
			links("./cmd/vetworker", "apichecker", "apichecker/internal/gateway", "apichecker/internal/market", "apichecker/internal/antivirus", "apichecker/internal/lifecycle"), "apichecker/internal/lifecycle"},
		{"md5", "crypto/md5 imported outside internal/apk/apk.go",
			source(outside("internal/apk/apk.go"), imports("crypto/md5")), `bench/p.go: package main; import "crypto/md5"`},
		{"one-http-edge", "http.MaxBytesReader or a sync.Pool of byte buffers in internal/gateway or internal/cluster non-test code (read a body with httpio.ReadBody; keep buffers in an httpio.Pool)",
			source(in("internal/gateway", "internal/cluster"), sel("net/http", "MaxBytesReader"), asserts("[]byte", "*[]byte", "*bytes.Buffer")), `internal/cluster/p.go: package cluster; import s "sync"; var p s.Pool; var b = p.Get().(*[]byte)`},
		{"emulator-math-rand", "internal/emulator imports math/rand (v1) again: seeding it costs 12 us and 4.9 KB per stream",
			source(scope{in: []string{"internal/emulator"}, tests: true}, imports("math/rand")), `internal/emulator/p_test.go: package emulator; import "math/rand"`},
	}

	files, err := repoFiles()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if bad := row.check(t, files, nil); len(bad) > 0 {
				t.Errorf("%s:\n\t%s", row.reason, strings.Join(bad, "\n\t"))
			}
			t.Run("fires", func(t *testing.T) {
				planted, deps, want := files, []string{row.plant}, row.plant
				if path, src, ok := strings.Cut(row.plant, ": "); ok {
					f, err := parseSrc(path, src)
					if err != nil {
						t.Fatal(err)
					}
					planted, deps, want = append(slices.Clip(files), f), nil, path
				}
				if bad := row.check(t, planted, deps); !slices.ContainsFunc(bad, func(b string) bool { return strings.Contains(b, want) }) {
					t.Errorf("%s: the planted %s is not reported (got %q)", row.reason, want, bad)
				}
			})
		})
	}
}

// srcFile is one parsed .go file of the repository.
type srcFile struct {
	path    string // slash-separated, relative to the repository root
	test    bool   // a _test.go file
	ast     *ast.File
	imports map[string]string // local name → import path
}

// repoFiles parses every .go file of the repository once for all tests: the
// module, cmd/, examples/, bench/ and test files, not dot-dirs or testdata.
var (
	repoFset  = token.NewFileSet()
	repoFiles = sync.OnceValues(func() (files []*srcFile, err error) {
		err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
				return filepath.SkipDir
			case d.IsDir() || !strings.HasSuffix(path, ".go"):
				return nil
			}
			f, err := parseSrc(path, nil)
			files = append(files, f)
			return err
		})
		return files, err
	})
)

// parseSrc parses one file into repoFset, from disk when src is nil.
func parseSrc(path string, src any) (*srcFile, error) {
	file, err := parser.ParseFile(repoFset, path, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	imports := map[string]string{}
	for _, im := range file.Imports {
		p := strings.Trim(im.Path.Value, `"`)
		local := p[strings.LastIndex(p, "/")+1:]
		if im.Name != nil {
			local = im.Name.Name
		}
		imports[local] = p
	}
	return &srcFile{path: filepath.ToSlash(path), test: strings.HasSuffix(path, "_test.go"), ast: file, imports: imports}, nil
}

// archCheck returns a row's violations in files or in its listed closures.
type archCheck func(t *testing.T, files []*srcFile, planted []string) []string

// scope selects the files under in (all when empty) and not under except,
// each a file or a directory; test files only when tests is set.
type scope struct {
	in, except []string
	tests      bool
}

func in(paths ...string) scope      { return scope{in: paths} }
func outside(paths ...string) scope { return scope{except: paths} }

func (s scope) has(f *srcFile) bool {
	under := func(paths []string) bool {
		return slices.ContainsFunc(paths, func(p string) bool { return f.path == p || strings.HasPrefix(f.path, p+"/") })
	}
	return (s.tests || !f.test) && (len(s.in) == 0 || under(s.in)) && !under(s.except)
}

// source reports every node of a file in sc that one of ms matches.
func source(sc scope, ms ...match) archCheck {
	return func(_ *testing.T, files []*srcFile, _ []string) (bad []string) {
		for _, f := range files {
			if sc.has(f) {
				ast.Inspect(f.ast, func(n ast.Node) bool {
					if n != nil && slices.ContainsFunc(ms, func(m match) bool { return m(n, f) }) {
						bad = append(bad, repoFset.Position(n.Pos()).String())
					}
					return true
				})
			}
		}
		return bad
	}
}

// links reports each of pkgs in the dependency closure of roots (go list
// patterns), the planted packages added.
func links(roots string, pkgs ...string) archCheck {
	list := sync.OnceValues(exec.Command("go", append([]string{"list", "-deps"}, strings.Fields(roots)...)...).Output)
	return func(t *testing.T, _ []*srcFile, planted []string) []string {
		out, err := list()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", roots, err)
		}
		return slices.DeleteFunc(append(strings.Fields(string(out)), planted...), func(p string) bool { return !slices.Contains(pkgs, p) })
	}
}

// match reports whether node n of file f is a violation.
type match func(n ast.Node, f *srcFile) bool

// node lifts a predicate on one node type to a match.
func node[T ast.Node](pred func(n T, f *srcFile) bool) match {
	return func(n ast.Node, f *srcFile) bool { t, ok := n.(T); return ok && pred(t, f) }
}

// imports matches an import of pkg.
func imports(pkg string) match {
	return node(func(im *ast.ImportSpec, _ *srcFile) bool { return strings.Trim(im.Path.Value, `"`) == pkg })
}

// declares matches a declaration of one of names: "N" is a type or func N,
// "T.M" a method M of T or a field M of struct type T, nested structs too.
func declares(names ...string) match {
	fn := node(func(fn *ast.FuncDecl, _ *srcFile) bool {
		if fn.Recv != nil {
			return slices.Contains(names, receiverName(fn.Recv.List[0].Type)+"."+fn.Name.Name)
		}
		return slices.Contains(names, fn.Name.Name)
	})
	typ := node(func(ts *ast.TypeSpec, _ *srcFile) bool {
		found := slices.Contains(names, ts.Name.Name)
		ast.Inspect(ts.Type, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				for _, field := range st.Fields.List {
					found = found || slices.ContainsFunc(field.Names, func(id *ast.Ident) bool { return slices.Contains(names, ts.Name.Name+"."+id.Name) })
				}
			}
			return !found
		})
		return found
	})
	return func(n ast.Node, f *srcFile) bool { return fn(n, f) || typ(n, f) }
}

// sel matches a selector x.A.B… whose root x names the file's import of
// pkg, whatever its local name, and whose "A.B…" matches one of patterns.
func sel(pkg string, patterns ...string) match {
	return node(func(s *ast.SelectorExpr, f *srcFile) bool {
		rest, x := s.Sel.Name, s.X
		for inner, ok := x.(*ast.SelectorExpr); ok; inner, ok = x.(*ast.SelectorExpr) {
			rest, x = inner.Sel.Name+"."+rest, inner.X
		}
		root, ok := x.(*ast.Ident)
		return ok && f.imports[root.Name] == pkg && slices.ContainsFunc(patterns, func(p string) bool { ok, _ := path.Match(p, rest); return ok })
	})
}

// callNoArgs matches name() and x.name().
func callNoArgs(name string) match {
	return node(func(c *ast.CallExpr, _ *srcFile) bool {
		s, ok := c.Fun.(*ast.SelectorExpr)
		return len(c.Args) == 0 && (ok && s.Sel.Name == name || isIdent(c.Fun, name))
	})
}

// soleArg matches f(name), f(pkg.name) and (name), pkg resolved as in sel.
func soleArg(pkg, name string) match {
	is := func(e ast.Expr, f *srcFile) bool { return isIdent(e, name) || sel(pkg, name)(e, f) }
	call := node(func(c *ast.CallExpr, f *srcFile) bool { return len(c.Args) == 1 && is(c.Args[0], f) })
	paren := node(func(p *ast.ParenExpr, f *srcFile) bool { return is(p.X, f) })
	return func(n ast.Node, f *srcFile) bool { return call(n, f) || paren(n, f) }
}

// asserts matches a type assertion x.(T) whose T, as written, is one of types.
func asserts(types ...string) match {
	return node(func(a *ast.TypeAssertExpr, _ *srcFile) bool {
		return a.Type != nil && slices.Contains(types, gotypes.ExprString(a.Type))
	})
}

// goStmt matches a go statement.
var goStmt = node(func(*ast.GoStmt, *srcFile) bool { return true })

// mapKey matches a map type keyed by the named type key.
func mapKey(key string) match {
	return node(func(m *ast.MapType, _ *srcFile) bool { return isIdent(m.Key, key) })
}

// ident matches an identifier whose name contains sub.
func ident(sub string) match {
	return node(func(id *ast.Ident, _ *srcFile) bool { return strings.Contains(id.Name, sub) })
}

// literal matches a string literal or struct tag whose value contains sub.
func literal(sub string) match {
	return node(func(lit *ast.BasicLit, _ *srcFile) bool {
		s, err := strconv.Unquote(lit.Value)
		return lit.Kind == token.STRING && err == nil && strings.Contains(s, sub)
	})
}

func isIdent(e ast.Expr, name string) bool { id, ok := e.(*ast.Ident); return ok && id.Name == name }
