package riscvsim

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestArchitectureRules holds the repository to its "one X" rules: one
// clock on the request path, one hop in the router, one statement of the
// rate formulas, one compressor, one door to the checkpoint store, one
// way to main memory, one integrity check, one LRU, one way back to an earlier cycle, one ledger
// codec and one schema of the architecture document. Each rule is an
// allow-list of the places an object may be referenced, checked on every
// non-test .go file under the root (bench/ included; testdata and hidden
// directories skipped), type-checked by the loader in loader_test.go.
// A reference is the object an identifier resolves to, so an alias, a
// dot-import, a method value or a copy of a field does not hide one, and a
// same-named object of another type or package is not one. A reference
// is placed by its file and its enclosing function.
//
// Each rule also checks sources planted at virtual paths, each checked as
// one more file of the package at its path (a function it declares
// replaces the package's own) and required to type-check: a form a text
// search would catch and a form it would miss must both be reported, and
// an allowed form must not be, so a rule cannot pass by reporting nothing
// or everything.
func TestArchitectureRules(t *testing.T) {
	tr := typedTree(t)
	var files []*srcFile
	for _, p := range tr.pkgs {
		files = append(files, p.files...)
	}
	for _, r := range archRules {
		t.Run(r.name, func(t *testing.T) {
			out, seen := r.violations(files)
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
					l, err := tr.plant(map[string]string{p.path: p.src})
					if err != nil {
						t.Fatal(err)
					}
					// A plant that does not type-check may name nothing the
					// rule matches, and pass or fail for that reason.
					if len(l.errs) > 0 {
						t.Fatalf("planted source does not type-check: %v", l.errs)
					}
					var here []string // violations at the planted file
					for _, f := range l.planted {
						if f.path != p.path {
							continue
						}
						out, _ := r.violations([]*srcFile{f})
						here = append(here, out...)
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

// ref names, as objName does, the object the node refers to: a selector's
// selected object, or an identifier's where it is not the name of a
// selector. Any other node, or a node that refers to nothing the rules
// name, is "".
func (c *cursor) ref() string {
	if p, ok := c.parent().(*ast.SelectorExpr); ok && p.Sel == c.node() {
		return ""
	}
	return c.refOf(c.node())
}

// refOf names the object an identifier or a selector refers to.
func (c *cursor) refOf(n ast.Node) string {
	switch n := n.(type) {
	case *ast.SelectorExpr:
		return objName(c.file.info.Uses[n.Sel])
	case *ast.Ident:
		return objName(c.file.info.Uses[n])
	}
	return ""
}

// selected returns the object a selector node selects, or nil.
func (c *cursor) selected() types.Object {
	if s, ok := c.node().(*ast.SelectorExpr); ok {
		return c.file.info.Uses[s.Sel]
	}
	return nil
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

// archRule allows references to some objects only at some places.
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

// rateFields are the rates stats.NewReport derives, and reportCopies
// the fields of the suite's metrics row that workload.FromReport rounds
// them into, each with the rate it copies.
var (
	rateFields = []string{
		"internal/stats.(Report).IPC", "internal/stats.(Report).WallTimeSec", "internal/stats.(Report).FlopsPerSec",
		"internal/stats.(Report).ROBOccupancy", "internal/stats.(Report).WindowOccup", "internal/stats.(FUStat).BusyPct",
		"internal/stats.(Report).PredAccuracy", "internal/stats.(Report).CacheHitRate",
	}
	reportCopies = map[string]string{
		"internal/workload.(Metrics).IPC":          "internal/stats.(Report).IPC",
		"internal/workload.(Metrics).PredAccuracy": "internal/stats.(Report).PredAccuracy",
	}
)

// suiteRates are the rates workload.FromReport derives for the suite's
// metrics row.
var suiteRates = []string{"internal/workload.(Metrics).CPI", "internal/workload.(Metrics).BranchMPKI", "internal/workload.(Metrics).CacheMissRate"}

// short drops the package path from a name objName made.
func short(name string) string { return name[strings.LastIndex(name, ".")+1:] }

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
			key := c.ref()
			if key != "time.Now" && key != "time.Since" && key != "time.Until" {
				return "", false
			}
			kv, _ := c.parent().(*ast.KeyValueExpr)
			asNow := kv != nil && kv.Value == c.node() && c.refOf(kv.Key) == "internal/server.(sessionStore).now" && c.in("internal/server", "newSessionStore")
			return key, path.Base(c.file.path) == "phase.go" || c.in("internal/server", "(*Server).fanOut") || asNow
		},
		plants: []plant{
			{"grep form", "internal/server/session.go", "package server\nimport \"time\"\nfunc (s *Server) touch() { _ = time.Now() }\n", false},
			{"method value", "internal/server/server.go", "package server\nimport \"time\"\nfunc (s *Server) clock() func() time.Time { now := time.Now; return now }\n", false},
			{"alias in a new file", "internal/server/metrics2.go", "package server\nimport clock \"time\"\nfunc since(t clock.Time) clock.Duration { return clock.Since(t) }\n", false},
			{"dot import", "internal/server/admission.go", "package server\nimport . \"time\"\nfunc deadline() Time { return Now().Add(Second) }\n", false},
			{"session clock", "internal/server/store.go", "package server\nimport (\"time\"; \"riscvsim/internal/store\")\nfunc newSessionStore(max int, ttl time.Duration, backend store.Store, spillTTL time.Duration, writeThrough bool, debugf func(string, ...any)) *sessionStore {\n\treturn &sessionStore{now: time.Now}\n}\n", true},
			{"fan-out wall time", "internal/server/batch.go", "package server\nimport (\"context\"; \"time\"; \"riscvsim/internal/api\")\nfunc (s *Server) fanOut(ctx context.Context, reqs []api.SimulateRequest) ([]api.BatchResult, int, time.Duration, *api.Error) {\n\tt := time.Now()\n\treturn nil, 0, time.Since(t), nil\n}\n", true},
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
			if c.ref() != "internal/router.(Router).forwardOnce" {
				return "", false
			}
			return "forwardOnce", c.in("internal/router", "(*Router).forward")
		},
		plants: []plant{
			{"grep form", "internal/router/health.go", "package router\nfunc (rt *Router) poll(t *replica) {\n\trt.forwardOnce(t, nil, nil, \"\")\n}\n", false},
			{"method value", "internal/router/health.go", "package router\nfunc (rt *Router) poll() { send := rt.forwardOnce; _ = send }\n", false},
			{"second call in forward", "internal/router/forward.go", "package router\nimport \"net/http\"\nfunc (rt *Router) forward(w http.ResponseWriter, r *http.Request, body []byte, p plan) {\n\trt.forwardOnce(nil, nil, nil, \"\")\n\trt.forwardOnce(nil, nil, nil, \"\")\n}\n", false},
			{"the attempt loop", "internal/router/forward.go", "package router\nimport \"net/http\"\nfunc (rt *Router) forward(w http.ResponseWriter, r *http.Request, body []byte, p plan) { resp, err := rt.forwardOnce(nil, nil, nil, \"\"); _, _ = resp, err }\n", true},
		},
	},
	{
		// Rates are derived from stats.Counters in stats.NewReport and
		// nowhere else (docs/architecture.md "Statistics"); a write to a
		// rate field elsewhere is a second copy of a formula in the
		// making. The report's own decoder (internal/stats) copies a rate
		// off the wire, `x.f = r.Float()` with r a jsonenc.Reader, which
		// derives nothing. workload.FromReport rounds the report's rates
		// into the suite's row and is the one place that derives the
		// row's CPI, BranchMPKI and CacheMissRate.
		name: "one statement of the rates",
		fix:  "derive rates in stats.NewReport (internal/stats/counters.go), not here",
		check: func(c *cursor) (string, bool) {
			name, keyed := rateWrite(c)
			switch {
			case slices.Contains(rateFields, name):
				return short(name) + " written", c.in("internal/stats", "NewReport") || readOffTheWire(c)
			case reportCopies[name] != "":
				return short(name) + " written", keyed != nil && c.in("internal/workload", "FromReport") && roundsSame(c, keyed.Value, reportCopies[name])
			case slices.Contains(suiteRates, name):
				return short(name) + " written", c.in("internal/workload", "FromReport")
			}
			if ref := c.ref(); ref == "internal/predictor.(Stats).Accuracy" || ref == "internal/cache.(Stats).HitRate" {
				return "." + short(ref), c.in("internal/stats", "NewReport")
			}
			return "", false
		},
		plants: []plant{
			{"grep form", "internal/server/suite.go", "package server\nimport \"riscvsim/internal/stats\"\nfunc fix(r *stats.Report) { r.IPC = 1 }\n", false},
			{"tuple assignment", "internal/server/suite.go", "package server\nimport \"riscvsim/internal/stats\"\nfunc fix(r *stats.Report) { r.IPC, r.ROBOccupancy = 1, 2 }\n", false},
			{"increment", "internal/render/table.go", "package render\nimport \"riscvsim/internal/stats\"\nfunc fix(r *stats.Report) { r.WallTimeSec++ }\n", false},
			{"round6 of another field", "internal/workload/metrics.go", "package workload\nimport \"riscvsim/internal/stats\"\nfunc FromReport(w Workload, r *stats.Report) Metrics { return Metrics{IPC: round6(r.CacheHitRate)} }\n", false},
			{"outside NewReport in stats", "internal/stats/merge.go", "package stats\nfunc (r *Report) add(o *Report) { r.FlopsPerSec += o.FlopsPerSec }\n", false},
			{"suite rate elsewhere", "internal/server/suite.go", "package server\nimport \"riscvsim/internal/workload\"\nfunc fix(m *workload.Metrics) { m.CPI = 2 }\n", false},
			{"hit rate elsewhere", "internal/render/table.go", "package render\nimport \"riscvsim/internal/cache\"\nfunc hits(s cache.Stats) float64 { return s.HitRate() }\n", false},
			{"decoded off the wire", "internal/stats/wire.go", "package stats\nimport \"riscvsim/internal/jsonenc\"\nfunc read(rep *Report, r *jsonenc.Reader) { rep.IPC = r.Float() }\n", true},
			{"a formula on a decoded value", "internal/stats/wire.go", "package stats\nimport \"riscvsim/internal/jsonenc\"\nfunc read(rep *Report, r *jsonenc.Reader) { rep.IPC = r.Float() / 2 }\n", false},
			{"a decoded value outside stats", "internal/server/suite.go", "package server\nimport (\"riscvsim/internal/jsonenc\"; \"riscvsim/internal/stats\")\nfunc read(rep *stats.Report, r *jsonenc.Reader) { rep.IPC = r.Float() }\n", false},
			{"the suite row", "internal/workload/metrics.go", "package workload\nimport \"riscvsim/internal/stats\"\nfunc FromReport(w Workload, r *stats.Report) Metrics {\n\tm := Metrics{IPC: round6(r.IPC)}\n\tm.CPI = round6(1)\n\treturn m\n}\n", true},
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
			switch c.ref() {
			case "compress/gzip.NewWriter", "compress/gzip.NewWriterLevel", "compress/flate.NewWriter", "compress/flate.NewWriterDict":
				return "compressor", c.file.path == "internal/api/codec.go"
			}
			return "", false
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
			if c.ref() != "internal/server.(sessionStore).backend" {
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
				if (p.Op == token.EQL || p.Op == token.NEQ) && (isNil(c, p.X) || isNil(c, p.Y)) {
					return "", false
				}
			case *ast.TypeAssertExpr:
				return "", false
			case *ast.AssignStmt:
				if slices.Contains(p.Lhs, n.(ast.Expr)) {
					return "", false
				}
			case *ast.KeyValueExpr:
				if p.Key == n {
					return "", false
				}
			}
			return "backend read as a value", false
		},
		plants: []plant{
			{"grep form", "internal/server/session.go", "package server\nfunc (st *sessionStore) peek(id string) { st.backend.Get(id) }\n", false},
			{"field copied", "internal/server/session.go", "package server\nfunc (st *sessionStore) peek(id string) { b := st.backend; b.Get(id) }\n", false},
			{"method value", "internal/server/stream.go", "package server\nfunc (st *sessionStore) peek(id string) { get := st.backend.Get; get(id) }\n", false},
			{"second Put in save", "internal/server/store.go", "package server\nfunc (st *sessionStore) save(tm *phaseTimer, sess *session, blob []byte, cause string) bool {\n\tst.backend.Put(\"a\", 1, nil)\n\tst.backend.Put(\"a\", 2, nil)\n\treturn true\n}\n", false},
			{"probes and doors", "internal/server/store.go", "package server\nimport (\"riscvsim/internal/store\"; \"riscvsim/sim\")\nfunc (st *sessionStore) load(tm *phaseTimer, id string) (*sim.Machine, uint64, bool) {\n\tif st.backend != nil {\n\t\t_, _ = st.backend.(store.Sweeper)\n\t\tst.backend.Version(id)\n\t\tst.backend.Get(id)\n\t}\n\treturn nil, 0, false\n}\n", true},
		},
	},
	{
		// Main memory is timed and counted in one method, memory.Main's
		// Access (docs/architecture.md "Memory: one door"): the L1 fills,
		// writes back and writes through by transactions. Any other method
		// of *memory.Main the cache calls — an untimed copy, the configured
		// latencies — is a second statement of memory timing in the
		// making, one whose transfers nobody counts.
		name: "one way to main memory",
		fix:  "move data between the L1 and main memory by a memory.Transaction through (*memory.Main).Access",
		check: func(c *cursor) (string, bool) {
			name := objName(c.selected())
			if path.Dir(c.file.path) != "internal/cache" || !strings.HasPrefix(name, "internal/memory.(Main).") {
				return "", false
			}
			return "memory.(*Main)." + short(name), short(name) == "Access" || short(name) == "Size"
		},
		plants: []plant{
			{"grep form", "internal/cache/cache.go", "package cache\nimport \"riscvsim/internal/fault\"\nfunc (c *Cache) writebackLine(si, w int, now uint64) (uint64, *fault.Exception) {\n\treturn now, c.backing.WriteBytes(c.lineAddr(si, c.set(si)[w].tag), c.lineData(si, w))\n}\n", false},
			{"method value", "internal/cache/peek.go", "package cache\nimport \"riscvsim/internal/memory\"\nfunc peek(m *memory.Main) { read := m.ReadBytes; read(0, 4) }\n", false},
			{"configured latency", "internal/cache/cache.go", "package cache\nfunc (c *Cache) missCost() uint64 { return uint64(c.backing.Config().LoadLatency) }\n", false},
			{"the door", "internal/cache/cache.go", "package cache\nimport \"riscvsim/internal/memory\"\nfunc (c *Cache) fetch(line []byte) { c.backing.Access(&memory.Transaction{Addr: c.backing.Size() - len(line), Line: line}, 0) }\n", true},
			{"loading outside the cache", "internal/asm/poke.go", "package asm\nimport \"riscvsim/internal/memory\"\nfunc poke(m *memory.Main) { m.WriteBytes(0, []byte{1}); _ = m.Config().LoadLatency }\n", true},
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
			if importOf(c) != "hash/crc32" {
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
			if importOf(c) != "container/list" {
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
	{
		// A machine reaches an earlier cycle or a fork — rewinds, snapshot
		// restores, the time-parallel scout, workers and hashes — through
		// one restore from its snapshot list, whose floor is the machine's
		// own cycle 0 (sim/snapshot.go, docs/architecture.md "Program and
		// machine"); a core.Fresh anywhere else is a second cycle 0 in the
		// making, one that forgets what was written before the first cycle.
		name: "one way back",
		fix:  "fork or rewind through Machine.restore (sim/snapshot.go), not core.Fresh",
		once: []string{"Fresh"},
		check: func(c *cursor) (string, bool) {
			if c.ref() != "internal/core.(Simulation).Fresh" || path.Dir(c.file.path) == "internal/core" {
				return "", false
			}
			return "Fresh", c.in("sim", "(*Machine).restore")
		},
		plants: []plant{
			{"method call", "sim/parallel.go", "package sim\nfunc (m *Machine) fork() { ns, _ := m.sim.Fresh(); _ = ns }\n", false},
			{"method value", "internal/server/session.go", "package server\nimport \"riscvsim/sim\"\nfunc fork(m *sim.Machine) { fresh := m.Sim().Fresh; fresh() }\n", false},
			{"second call in restore", "sim/snapshot.go", "package sim\nimport \"riscvsim/internal/core\"\nfunc (m *Machine) restore(from snapshot, target uint64) (*core.Simulation, error) {\n\tm.sim.Fresh()\n\treturn m.sim.Fresh()\n}\n", false},
			{"the one restore", "sim/snapshot.go", "package sim\nimport \"riscvsim/internal/core\"\nfunc (m *Machine) restore(from snapshot, target uint64) (*core.Simulation, error) { return m.sim.Fresh() }\n", true},
		},
	},
	{
		// The statistics ledger crosses a checkpoint as one section,
		// written and read by its own reflective codec (stats.Counters
		// EncodeState / DecodeState, docs/checkpoint.md); a counter a
		// component's codec writes by hand is a second copy of the
		// ledger's layout in the making. The ledger's types are
		// stats.Counters and every struct type it holds. In a state codec
		// — an EncodeState or DecodeState, or any function of a
		// checkpoint.go — a slot of a ledger type (a field whatever its
		// name) is only handed to the ledger codec, the ledger a method
		// returns only encoded, and no field of a ledger type is selected
		// from a chain.
		name: "one ledger",
		fix:  "let the ledger's own codec carry counters (s.Counters().EncodeState / s.ledger.DecodeState)",
		check: func(c *cursor) (string, bool) {
			obj := c.selected()
			if obj == nil || path.Dir(c.file.path) == "internal/stats" ||
				path.Base(c.file.path) != "checkpoint.go" && !strings.HasSuffix(c.fn, ".EncodeState") && !strings.HasSuffix(c.fn, ".DecodeState") {
				return "", false
			}
			switch o := obj.(type) {
			case *types.Func:
				if res := o.Signature().Results(); res.Len() == 1 && isLedger(res.At(0).Type()) {
					return o.Name() + "() read", codecReceiver(c, true, "EncodeState")
				}
			case *types.Var:
				switch {
				case !o.IsField():
				case fieldOwner(o) != nil && ledgerTypes()[objName(fieldOwner(o))]:
					_, local := c.node().(*ast.SelectorExpr).X.(*ast.Ident)
					return "ledger field " + o.Name(), local
				case isLedger(o.Type()):
					return "ledger slot " + o.Name() + " read", codecReceiver(c, false, "EncodeState", "DecodeState")
				}
			}
			return "", false
		},
		plants: []plant{
			{"grep form", "internal/cache/checkpoint.go", "package cache\nimport \"riscvsim/internal/ckpt\"\nfunc (c *Cache) EncodeState(w *ckpt.Writer) { w.U64(c.stats.Hits) }\n", false},
			{"helper in a checkpoint file", "internal/core/checkpoint.go", "package core\nimport \"riscvsim/internal/ckpt\"\nfunc encodeLSU(w *ckpt.Writer, l *LSU) { w.U64(l.stats.Loads) }\n", false},
			{"settled copy read by hand", "internal/core/checkpoint.go", "package core\nimport \"riscvsim/internal/ckpt\"\nfunc (s *Simulation) EncodeState(w *ckpt.Writer) { c := s.Counters(); w.U64(c.Cycles) }\n", false},
			{"slot of another name", "internal/predictor/predictor.go", "package predictor\nimport \"riscvsim/internal/ckpt\"\ntype shadow struct{ tally *Stats }\nfunc (p *shadow) DecodeState(r *ckpt.Reader) { p.tally.Correct = r.U64() }\n", false},
			{"the ledger codec", "internal/core/checkpoint.go", "package core\nimport \"riscvsim/internal/ckpt\"\nfunc (s *Simulation) EncodeState(w *ckpt.Writer) { s.Counters().EncodeState(w); var si SimInstr; w.Bool(si.Squashed) }\nfunc (s *Simulation) DecodeState(r *ckpt.Reader) { s.ledger.DecodeState(r) }\n", true},
		},
	},
	{
		// The architecture document's domain is stated once, in
		// config.Schema and its rules (internal/config/schema.go), which
		// CPU.Validate walks. A Validate method on another architecture
		// type, or an exported Max* constant declared in an architecture
		// package, is a second statement of it in the making.
		name: "one schema",
		fix:  "state the domain as a row or rule of config.Schema (internal/config/schema.go)",
		once: []string{"config.(*CPU).Validate"},
		check: func(c *cursor) (string, bool) {
			switch n := c.node().(type) {
			case *ast.FuncDecl:
				m, _ := c.file.info.Defs[n.Name].(*types.Func)
				if n.Name.Name == "Validate" && m != nil && m.Signature().Recv() != nil && slices.Contains(archTypes, recvName(m)) {
					return path.Base(path.Dir(c.file.path)) + "." + funcName(n), c.file.path == "internal/config/schema.go"
				}
			case *ast.ValueSpec:
				for _, id := range n.Names {
					if k, ok := c.file.info.Defs[id].(*types.Const); ok && archBound(k) {
						return "declaration of " + k.Pkg().Name() + "." + k.Name(), false
					}
				}
			}
			return "", false
		},
		plants: []plant{
			{"cache validator", "internal/cache/cache.go", "package cache\nfunc (c Config) Validate() error { return nil }\n", false},
			{"bound in the predictor", "internal/predictor/predictor.go", "package predictor\nconst MaxBTBSize = 4096\n", false},
			{"aliased import", "internal/predictor/predictor.go", "package predictor\nimport m \"math\"\nconst MaxPHTSize = m.MaxInt16\n", false},
			{"dot import", "internal/cache/cache.go", "package cache\nimport . \"math\"\nconst MaxLines = MaxInt16\n", false},
			{"grouped bounds in the schema file", "internal/config/schema.go", "package config\nconst (\n\tlineBytes = 64\n\tMaxROBSize, MaxWidth int = 1024, 64\n)\n", false},
			{"bound outside the architecture", "internal/api/limits.go", "package api\nconst MaxWidth = 64\n", true},
			{"the schema", "internal/config/schema.go", "package config\nfunc (c *CPU) Validate() []error {\n\tif c.ROBSize > 1024 {\n\t\treturn nil\n\t}\n\treturn nil\n}\n", true},
		},
	},
}

// archTypes are the types of the architecture document.
var archTypes = []string{"internal/config.CPU", "internal/config.FUSpec", "internal/cache.Config", "internal/predictor.Config", "internal/memory.Config"}

// recvName names method m's receiver type as objName names a type.
func recvName(m *types.Func) string {
	return strings.TrimPrefix(m.Pkg().Path(), modulePath+"/") + "." + typeName(m.Signature().Recv().Type())
}

// archBound reports whether k is an exported package-level Max* constant
// of a package that declares an architecture type.
func archBound(k *types.Const) bool {
	if !strings.HasPrefix(k.Name(), "Max") || k.Parent() != k.Pkg().Scope() {
		return false
	}
	dir := strings.TrimPrefix(k.Pkg().Path(), modulePath+"/")
	return slices.ContainsFunc(archTypes, func(t string) bool { return strings.HasPrefix(t, dir+".") })
}

// isNil reports whether e is the predeclared nil.
func isNil(c *cursor, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	_, isNil := c.file.info.Uses[id].(*types.Nil)
	return ok && isNil
}

// importOf returns the path a node imports if it is an import spec.
func importOf(c *cursor) string {
	is, ok := c.node().(*ast.ImportSpec)
	if !ok {
		return ""
	}
	ip, _ := strconv.Unquote(is.Path.Value)
	return ip
}

// ledgerTypes names stats.Counters and every named type it holds, at any
// depth: the types whose fields are the ledger's.
var ledgerTypes = sync.OnceValue(func() map[string]bool {
	names := map[string]bool{}
	tr, err := loadTree()
	if err != nil {
		return names
	}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		switch u := t.(type) {
		case *types.Named:
			names[objName(u.Obj())] = true
			walk(u.Underlying())
		case *types.Struct:
			for f := range u.Fields() {
				walk(f.Type())
			}
		case *types.Slice:
			walk(u.Elem())
		case *types.Array:
			walk(u.Elem())
		case *types.Pointer:
			walk(u.Elem())
		}
	}
	walk(tr.pkgs[slices.IndexFunc(tr.pkgs, func(p *typedPkg) bool { return p.types.Path() == modulePath+"/internal/stats" })].types.Scope().Lookup("Counters").Type())
	return names
})

// isLedger reports whether t, or what it points to, is a ledger type.
func isLedger(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && ledgerTypes()[objName(n.Obj())]
}

// codecReceiver reports whether the selector at the cursor — or, when
// called, its call — is the receiver of a call to one of the ledger
// codec's methods: s.ledger.DecodeState(r), s.Counters().EncodeState(w).
func codecReceiver(c *cursor, called bool, methods ...string) bool {
	stack := c.stack
	i := len(stack) - 1
	if called {
		if call, ok := stack[i-1].(*ast.CallExpr); !ok || call.Fun != stack[i] {
			return false
		}
		i--
	}
	if i < 2 {
		return false
	}
	sel, ok := stack[i-1].(*ast.SelectorExpr)
	if !ok || sel.X != stack[i] {
		return false
	}
	m, ok := c.file.info.Uses[sel.Sel].(*types.Func)
	if !ok || !slices.Contains(methods, m.Name()) || !isLedger(m.Signature().Recv().Type()) {
		return false
	}
	call, ok := stack[i-2].(*ast.CallExpr)
	return ok && call.Fun == sel
}

// rateWrite returns the field a node writes, as objName names it: a
// selector assigned to or incremented, or a composite-literal key
// (returned with its pair).
func rateWrite(c *cursor) (string, *ast.KeyValueExpr) {
	switch n := c.node().(type) {
	case *ast.SelectorExpr:
		switch p := c.parent().(type) {
		case *ast.AssignStmt:
			if slices.Contains(p.Lhs, ast.Expr(n)) {
				return c.refOf(n), nil
			}
		case *ast.IncDecStmt:
			return c.refOf(n), nil
		}
	case *ast.KeyValueExpr:
		if _, lit := c.parent().(*ast.CompositeLit); lit {
			return c.refOf(n.Key), n
		}
	}
	return "", nil
}

// readOffTheWire reports whether the write at c is `x.f = r.Float()` in
// internal/stats, r a jsonenc.Reader: the report's decoder copying a rate
// the sender derived.
func readOffTheWire(c *cursor) bool {
	a, ok := c.parent().(*ast.AssignStmt)
	if !ok || a.Tok != token.ASSIGN || len(a.Lhs) != 1 || len(a.Rhs) != 1 || path.Dir(c.file.path) != "internal/stats" {
		return false
	}
	call, ok := a.Rhs[0].(*ast.CallExpr)
	return ok && len(call.Args) == 0 && c.refOf(call.Fun) == "internal/jsonenc.(Reader).Float"
}

// roundsSame reports whether e is round6(x.f), f the field named rate.
func roundsSame(c *cursor, e ast.Expr, rate string) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || c.refOf(call.Fun) != "internal/workload.round6" || len(call.Args) != 1 {
		return false
	}
	return c.refOf(call.Args[0]) == rate
}
