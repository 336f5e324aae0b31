package riscvsim

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestArchitectureRules holds the repository to its "one X" rules: one
// clock on the request path, one hop in the router, one statement of the
// rate formulas, one compressor, one door to the checkpoint store, one
// integrity check and one LRU. Each rule is an allow-list of the places a name may be
// referenced, checked on the syntax of every non-test .go file under the
// root (bench/ included; testdata and hidden directories skipped). Imports
// are resolved by path, so an alias or a dot-import does not hide a
// reference, and a reference is placed by its file and its enclosing
// function.
//
// Each rule also checks planted sources at virtual paths: a form a text
// search would catch and a form it would miss must both be reported, and
// an allowed form must not be, so a rule cannot pass by reporting nothing
// or everything.
func TestArchitectureRules(t *testing.T) {
	tree := parseTree(t, ".")
	for _, r := range archRules {
		t.Run(r.name, func(t *testing.T) {
			out, seen := r.violations(tree)
			for _, v := range out {
				t.Error(v)
			}
			for _, key := range r.once {
				if seen[key] == 0 {
					t.Errorf("%s: no %s where the rule expects exactly one: %s", r.name, key, r.fix)
				}
			}
			for _, p := range r.plants {
				t.Run(p.name, func(t *testing.T) {
					f, err := parseSource(token.NewFileSet(), p.path, p.src)
					if err != nil {
						t.Fatal(err)
					}
					var here []string // violations at the planted file
					out, _ := r.violations([]*srcFile{f})
					for _, v := range out {
						if strings.Contains(v, p.path+":") {
							here = append(here, v)
						}
					}
					switch {
					case p.allowed && len(here) > 0:
						t.Errorf("allowed form reported:\n%s", strings.Join(here, "\n"))
					case !p.allowed && len(here) == 0:
						t.Errorf("planted violation at %s not reported", p.path)
					}
				})
			}
		})
	}
}

// srcFile is one parsed source file with its imports resolved.
type srcFile struct {
	path    string // slash-separated, relative to the root
	fset    *token.FileSet
	ast     *ast.File
	imports map[string]string // local name -> import path
	dots    []string          // dot-imported paths
}

func parseTree(t *testing.T, root string) []*srcFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []*srcFile
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		f, err := parseSource(fset, filepath.ToSlash(p), string(src))
		files = append(files, f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func parseSource(fset *token.FileSet, p, src string) (*srcFile, error) {
	af, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	f := &srcFile{path: p, fset: fset, ast: af, imports: map[string]string{}}
	for _, is := range af.Imports {
		ip, err := strconv.Unquote(is.Path.Value)
		if err != nil {
			return nil, err
		}
		switch {
		case is.Name == nil:
			f.imports[path.Base(ip)] = ip
		case is.Name.Name == ".":
			f.dots = append(f.dots, ip)
		case is.Name.Name != "_":
			f.imports[is.Name.Name] = ip
		}
	}
	return f, nil
}

// cursor is a node in the walk of one file: its ancestors, the node last.
type cursor struct {
	file  *srcFile
	fn    string // enclosing function, "(*T).name" or "name"; "" at package level
	stack []ast.Node
}

func (c *cursor) node() ast.Node { return c.stack[len(c.stack)-1] }

func (c *cursor) parent() ast.Node {
	if len(c.stack) < 2 {
		return nil
	}
	return c.stack[len(c.stack)-2]
}

// in reports whether the node is inside function fn of the package in dir.
func (c *cursor) in(dir, fn string) bool { return path.Dir(c.file.path) == dir && c.fn == fn }

// ref reports which of the names exported by the package at importPath the
// node refers to, as "pkg.Name", or "" if none: a selector on the
// package's import name (whatever its alias), or a bare identifier where
// the package is dot-imported. A local that shadows the import name is
// taken for the package: a false report here is safer than a missed one.
func (c *cursor) ref(importPath string, names ...string) string {
	switch n := c.node().(type) {
	case *ast.SelectorExpr:
		if x, ok := n.X.(*ast.Ident); ok && c.file.imports[x.Name] == importPath && slices.Contains(names, n.Sel.Name) {
			return path.Base(importPath) + "." + n.Sel.Name
		}
	case *ast.Ident:
		if !slices.Contains(c.file.dots, importPath) || !slices.Contains(names, n.Name) {
			return ""
		}
		switch p := c.parent().(type) {
		case *ast.SelectorExpr:
			if p.Sel == n {
				return ""
			}
		case *ast.KeyValueExpr:
			if p.Key == n {
				return ""
			}
		case *ast.FuncDecl, *ast.Field, *ast.ValueSpec, *ast.TypeSpec, *ast.ImportSpec:
			return ""
		}
		return path.Base(importPath) + "." + n.Name
	}
	return ""
}

// selector returns the selected name if the node is a selector x.name.
func (c *cursor) selector() string {
	if s, ok := c.node().(*ast.SelectorExpr); ok {
		return s.Sel.Name
	}
	return ""
}

func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return fd.Name.Name
	}
	switch t := fd.Recv.List[0].Type.(type) {
	case *ast.StarExpr:
		if id, ok := t.X.(*ast.Ident); ok {
			return "(*" + id.Name + ")." + fd.Name.Name
		}
	case *ast.Ident:
		return t.Name + "." + fd.Name.Name
	}
	return "?." + fd.Name.Name // a generic receiver: no rule names one
}

// archRule allows references to some names only at some places.
type archRule struct {
	name string
	fix  string // where the thing belongs
	// check classifies the node under the cursor: key names the reference
	// ("" if the rule does not govern the node), allowed whether it
	// stands where the rule allows it.
	check func(c *cursor) (key string, allowed bool)
	// once lists keys whose allowed references must number exactly one.
	once   []string
	plants []plant
}

// plant is a source planted at a virtual path to prove a rule can fail.
type plant struct {
	name, path, src string
	allowed         bool // the form is one the rule allows
}

// violations lists the references in files that break the rule, and
// counts the allowed references of each key.
func (r *archRule) violations(files []*srcFile) ([]string, map[string]int) {
	var out []string
	seen := map[string]int{}
	for _, f := range files {
		for _, d := range f.ast.Decls {
			c := &cursor{file: f}
			if fd, ok := d.(*ast.FuncDecl); ok {
				c.fn = funcName(fd)
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if n == nil {
					c.stack = c.stack[:len(c.stack)-1]
					return true
				}
				c.stack = append(c.stack, n)
				key, allowed := r.check(c)
				if allowed && slices.Contains(r.once, key) {
					if seen[key]++; seen[key] > 1 {
						key, allowed = "a second "+key, false
					}
				}
				if key == "" || allowed {
					return true
				}
				where := c.fn
				if where == "" {
					where = "package level"
				}
				out = append(out, fmt.Sprintf("%s: %s:%d: %s in %s: %s", r.name, f.path, f.fset.Position(n.Pos()).Line, key, where, r.fix))
				return true
			})
		}
	}
	return out, seen
}

var rateFields = []string{"IPC", "WallTimeSec", "FlopsPerSec", "ROBOccupancy", "WindowOccup", "BusyPct", "PredAccuracy", "CacheHitRate"}

// suiteRates are the rates workload.FromReport derives for the suite's
// metrics row.
var suiteRates = []string{"CPI", "BranchMPKI", "CacheMissRate"}

var archRules = []*archRule{
	{
		// Handlers book their time through the request's phase timer
		// (internal/server/phase.go); a clock read in a handler is a second
		// ledger in the making. store.go books its store I/O through the
		// timer its callers pass in and reads the time only through its
		// injectable session clock. The one clock left outside the timer is
		// fanOut's WallNanos.
		name: "one clock",
		fix:  "time the request path through phaseTimer (internal/server/phase.go), not by hand",
		check: func(c *cursor) (string, bool) {
			if path.Dir(c.file.path) != "internal/server" {
				return "", false
			}
			key := c.ref("time", "Now", "Since", "Until")
			if key == "" {
				return "", false
			}
			kv, _ := c.parent().(*ast.KeyValueExpr)
			asNow := kv != nil && kv.Value == c.node() && isIdent(kv.Key, "now") && c.in("internal/server", "newSessionStore")
			return key, path.Base(c.file.path) == "phase.go" || c.in("internal/server", "(*Server).fanOut") || asNow
		},
		plants: []plant{
			{"grep form", "internal/server/session.go", "package server\nimport \"time\"\nfunc (s *Server) touch() { _ = time.Now() }\n", false},
			{"method value", "internal/server/server.go", "package server\nimport \"time\"\nfunc (s *Server) clock() func() time.Time { now := time.Now; return now }\n", false},
			{"alias in a new file", "internal/server/metrics2.go", "package server\nimport clock \"time\"\nfunc since(t clock.Time) clock.Duration { return clock.Since(t) }\n", false},
			{"dot import", "internal/server/admission.go", "package server\nimport . \"time\"\nfunc deadline() Time { return Now().Add(Second) }\n", false},
			{"session clock", "internal/server/store.go", "package server\nimport \"time\"\nfunc newSessionStore() *sessionStore { return &sessionStore{now: time.Now} }\n", true},
			{"fan-out wall time", "internal/server/batch.go", "package server\nimport \"time\"\nfunc (s *Server) fanOut() time.Duration { t := time.Now(); return time.Since(t) }\n", true},
		},
	},
	{
		// Every routed request takes the one attempt loop (docs/deployment.md
		// "One hop"); a second reference to forwardOnce is a second copy of
		// the retry/breaker/budget bookkeeping in the making.
		name: "one hop",
		fix:  "forward requests through Router.forward",
		once: []string{"forwardOnce"},
		check: func(c *cursor) (string, bool) {
			if c.selector() != "forwardOnce" {
				return "", false
			}
			return "forwardOnce", c.in("internal/router", "(*Router).forward")
		},
		plants: []plant{
			{"grep form", "internal/router/health.go", "package router\nfunc (rt *Router) probe(t *replica) {\n\trt.forwardOnce(t, nil, nil, \"\")\n}\n", false},
			{"method value", "internal/router/health.go", "package router\nfunc (rt *Router) probe() { send := rt.forwardOnce; _ = send }\n", false},
			{"second call in forward", "internal/router/forward.go", "package router\nfunc (rt *Router) forward() {\n\trt.forwardOnce(a, r, b, \"\")\n\trt.forwardOnce(a, r, b, \"\")\n}\n", false},
			{"the attempt loop", "internal/router/forward.go", "package router\nfunc (rt *Router) forward() { resp, err := rt.forwardOnce(a, r, b, \"\"); _, _ = resp, err }\n", true},
		},
	},
	{
		// Rates are derived from stats.Counters in stats.NewReport and
		// nowhere else (docs/architecture.md "Statistics"); a write to a
		// rate field elsewhere is a second copy of a formula in the
		// making. workload.FromReport rounds the report's rates into the
		// suite's row and is the one place that derives the row's CPI,
		// BranchMPKI and CacheMissRate.
		name: "one statement of the rates",
		fix:  "derive rates in stats.NewReport (internal/stats/counters.go), not here",
		check: func(c *cursor) (string, bool) {
			name, keyed := rateWrite(c)
			switch {
			case slices.Contains(rateFields, name):
				return name + " written", c.in("internal/stats", "NewReport") ||
					keyed != nil && c.in("internal/workload", "FromReport") && roundsSame(keyed.Value, name)
			case slices.Contains(suiteRates, name):
				return name + " written", c.in("internal/workload", "FromReport")
			}
			if sel := c.selector(); sel == "Accuracy" || sel == "HitRate" {
				return "." + sel, c.in("internal/stats", "NewReport")
			}
			return "", false
		},
		plants: []plant{
			{"grep form", "internal/server/suite.go", "package server\nfunc fix(r *stats.Report) { r.IPC = 1 }\n", false},
			{"tuple assignment", "internal/server/suite.go", "package server\nfunc fix(r *stats.Report) { r.IPC, r.BusyPct = 1, 2 }\n", false},
			{"increment", "internal/render/table.go", "package render\nfunc fix(r *stats.Report) { r.WallTimeSec++ }\n", false},
			{"round6 of another field", "internal/workload/metrics.go", "package workload\nfunc FromReport(r *stats.Report) Metrics { return Metrics{IPC: round6(r.CacheHitRate)} }\n", false},
			{"outside NewReport in stats", "internal/stats/merge.go", "package stats\nfunc (r *Report) add(o *Report) { r.FlopsPerSec += o.FlopsPerSec }\n", false},
			{"suite rate elsewhere", "internal/server/suite.go", "package server\nfunc fix(m *workload.Metrics) { m.CPI = 2 }\n", false},
			{"hit rate elsewhere", "internal/render/table.go", "package render\nfunc hits(s cache.Stats) float64 { return s.HitRate() }\n", false},
			{"the suite row", "internal/workload/metrics.go", "package workload\nfunc FromReport(r *stats.Report) Metrics {\n\tm := Metrics{IPC: round6(r.IPC)}\n\tm.CPI = round6(1)\n\treturn m\n}\n", true},
		},
	},
	{
		// Every compressed body goes through the pooled compressor in
		// internal/api/codec.go, whose level is one measured constant
		// (docs/performance.md "The step reply path"); a second
		// constructor is a second level in the making.
		name: "one compressor",
		fix:  "compress through api.GetGzipWriter (internal/api/codec.go), not a compressor of your own",
		once: []string{"compressor"},
		check: func(c *cursor) (string, bool) {
			if c.ref("compress/gzip", "NewWriter", "NewWriterLevel") == "" && c.ref("compress/flate", "NewWriter", "NewWriterDict") == "" {
				return "", false
			}
			return "compressor", c.file.path == "internal/api/codec.go"
		},
		plants: []plant{
			{"grep form", "internal/server/gzip.go", "package server\nimport (\"compress/gzip\"; \"io\")\nfunc wrap(w io.Writer) io.Writer { return gzip.NewWriter(w) }\n", false},
			{"alias", "internal/server/gzip.go", "package server\nimport (gz \"compress/gzip\"; \"io\")\nfunc wrap(w io.Writer) io.Writer { return gz.NewWriter(w) }\n", false},
			{"method value", "cmd/loadtest/main.go", "package main\nimport \"compress/flate\"\nvar mk = flate.NewWriter\n", false},
			{"second site in codec.go", "internal/api/codec.go", "package api\nimport \"compress/gzip\"\nfunc a() { gzip.NewWriterLevel(nil, 1); gzip.NewWriterLevel(nil, 9) }\n", false},
			{"the pooled compressor", "internal/api/codec.go", "package api\nimport \"compress/gzip\"\nfunc a() { gzip.NewWriterLevel(nil, gzip.BestSpeed) }\n", true},
		},
	},
	{
		// Every checkpoint blob is written by sessionStore.save and read
		// back by sessionStore.load (internal/server/store.go,
		// docs/robustness.md "One door"); a second backend Get is a read
		// with a retry / delete policy of its own, a second Put a write
		// outside the session's version counter. The backend field is read
		// only as a selector receiver, a nil test or a type assertion, so it
		// cannot leave the store under another name.
		name: "one door",
		fix:  "go through sessionStore.load / sessionStore.save",
		once: []string{"backend.Get", "backend.Put"},
		check: func(c *cursor) (string, bool) {
			if path.Dir(c.file.path) != "internal/server" || c.selector() != "backend" {
				return "", false
			}
			n := c.node()
			switch p := c.parent().(type) {
			case *ast.SelectorExpr:
				switch p.Sel.Name {
				case "Get":
					return "backend.Get", c.in("internal/server", "(*sessionStore).load")
				case "Put":
					return "backend.Put", c.in("internal/server", "(*sessionStore).save")
				}
				return "", false
			case *ast.BinaryExpr:
				if (p.Op == token.EQL || p.Op == token.NEQ) && (isIdent(p.X, "nil") || isIdent(p.Y, "nil")) {
					return "", false
				}
			case *ast.TypeAssertExpr:
				return "", false
			case *ast.AssignStmt:
				if slices.Contains(p.Lhs, ast.Expr(n.(*ast.SelectorExpr))) {
					return "", false
				}
			}
			return "backend read as a value", false
		},
		plants: []plant{
			{"grep form", "internal/server/session.go", "package server\nfunc (st *sessionStore) peek(id string) { st.backend.Get(id) }\n", false},
			{"field copied", "internal/server/session.go", "package server\nfunc (st *sessionStore) peek(id string) { b := st.backend; b.Get(id) }\n", false},
			{"method value", "internal/server/stream.go", "package server\nfunc (st *sessionStore) peek(id string) { get := st.backend.Get; get(id) }\n", false},
			{"second Put in save", "internal/server/store.go", "package server\nfunc (st *sessionStore) save() { st.backend.Put(a, 1, b); st.backend.Put(a, 2, b) }\n", false},
			{"probes and doors", "internal/server/store.go", "package server\nfunc (st *sessionStore) load(id string) {\n\tif st.backend != nil {\n\t\t_, _ = st.backend.(store.Sweeper)\n\t\tst.backend.Version(id)\n\t\tst.backend.Get(id)\n\t}\n}\n", true},
		},
	},
	{
		// A checkpoint's one integrity check is its CRC-32C trailer,
		// written and verified in internal/ckpt before any decoder runs
		// (docs/checkpoint.md "Integrity"); a crc32 import anywhere else is a
		// second check in the making: a seal around the stream, or a hash
		// inside its header.
		name: "one integrity check",
		fix:  "check checkpoint integrity in internal/ckpt (ckpt.Open), not with a CRC of your own",
		check: func(c *cursor) (string, bool) {
			is, ok := c.node().(*ast.ImportSpec)
			if !ok {
				return "", false
			}
			if ip, _ := strconv.Unquote(is.Path.Value); ip != "hash/crc32" {
				return "", false
			}
			return "hash/crc32 import", strings.HasPrefix(c.file.path, "internal/ckpt/")
		},
		plants: []plant{
			{"grep form", "internal/store/dir.go", "package store\nimport \"hash/crc32\"\nvar _ = crc32.ChecksumIEEE\n", false},
			{"raw-string path", "sim/checkpoint.go", "package sim\nimport c `hash/crc32`\nvar _ = c.ChecksumIEEE\n", false},
			{"the format", "internal/ckpt/ckpt.go", "package ckpt\nimport \"hash/crc32\"\nvar table = crc32.MakeTable(crc32.Castagnoli)\n", true},
		},
	},
	{
		// The server's bounded, recency-ordered maps — Programs, memoized
		// replies, sessions — are one generic lru (internal/server/lru.go)
		// that each user guards with its own mutex; a container/list import
		// anywhere else is a second hand-written LRU in the making.
		name: "one LRU",
		fix:  "keep recency order in the lru of internal/server/lru.go, not a list of your own",
		check: func(c *cursor) (string, bool) {
			is, ok := c.node().(*ast.ImportSpec)
			if !ok {
				return "", false
			}
			if ip, _ := strconv.Unquote(is.Path.Value); ip != "container/list" {
				return "", false
			}
			return "container/list import", c.file.path == "internal/server/lru.go"
		},
		plants: []plant{
			{"grep form", "internal/server/store.go", "package server\nimport \"container/list\"\nvar order = list.New()\n", false},
			{"aliased import", "internal/router/breaker.go", "package router\nimport recent \"container/list\"\nvar order = recent.New()\n", false},
			{"the lru", "internal/server/lru.go", "package server\nimport \"container/list\"\nvar order = list.New()\n", true},
		},
	},
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// rateWrite returns the field name a node writes: a selector assigned to
// or incremented, or a composite-literal key (returned with its pair).
func rateWrite(c *cursor) (string, *ast.KeyValueExpr) {
	switch n := c.node().(type) {
	case *ast.SelectorExpr:
		switch p := c.parent().(type) {
		case *ast.AssignStmt:
			if slices.Contains(p.Lhs, ast.Expr(n)) {
				return n.Sel.Name, nil
			}
		case *ast.IncDecStmt:
			return n.Sel.Name, nil
		}
	case *ast.KeyValueExpr:
		if _, lit := c.parent().(*ast.CompositeLit); lit {
			if id, ok := n.Key.(*ast.Ident); ok {
				return id.Name, n
			}
		}
	}
	return "", nil
}

// roundsSame reports whether e is round6(x.field).
func roundsSame(e ast.Expr, field string) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || !isIdent(call.Fun, "round6") || len(call.Args) != 1 {
		return false
	}
	sel, ok := call.Args[0].(*ast.SelectorExpr)
	return ok && sel.Sel.Name == field
}
