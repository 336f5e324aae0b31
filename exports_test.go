package riscvsim

import (
	"go/ast"
	"go/token"
	"path"
	"slices"
	"testing"
)

// TestExportsHaveCallers holds every exported name to a non-test caller:
// an export in a non-test, non-main file must be referenced by identifier
// from some other non-test file (cmd/ and bench/ included), or be listed
// in exportAllowList with the reason it stays. A listed name that gains a
// caller or no longer exists fails too, so the list only shrinks to what
// is true. Methods are matched by name, so a method is called as soon as
// any selector of its name is, whatever the receiver.
func TestExportsHaveCallers(t *testing.T) {
	tree := parseTree(t, ".")
	uncalled := exportsWithoutCallers(tree)
	for _, key := range uncalled {
		if _, ok := exportAllowList[key]; !ok {
			t.Errorf("%s is exported but has no non-test caller: delete it, unexport it, or allow-list it with a reason", key)
		}
	}
	for key, reason := range exportAllowList {
		switch {
		case reason == "":
			t.Errorf("%s is allow-listed without a reason", key)
		case !slices.Contains(uncalled, key):
			t.Errorf("%s is allow-listed but has a non-test caller or no longer exists: drop it from exportAllowList", key)
		}
	}

	t.Run("planted", func(t *testing.T) {
		const lib = "package demo\n" +
			"func Uncalled() {}\n" +
			"func Called() {}\n" +
			"type T struct{}\n" +
			"func (T) Method() {}\n" +
			"func (*T) Used() {}\n" +
			"func unexported() {}\n"
		const cmd = "package main\n" +
			"import \"riscvsim/internal/demo\"\n" +
			"func main() { var t demo.T; demo.Called(); t.Used() }\n" +
			"func Exported() {}\n"
		fset := token.NewFileSet()
		var planted []*srcFile
		for _, p := range []struct{ path, src string }{{"internal/demo/demo.go", lib}, {"cmd/demo/main.go", cmd}} {
			f, err := parseSource(fset, p.path, p.src)
			if err != nil {
				t.Fatal(err)
			}
			planted = append(planted, f)
		}
		want := []string{"internal/demo.(T).Method", "internal/demo.Uncalled"}
		if got := exportsWithoutCallers(planted); !slices.Equal(got, want) {
			t.Errorf("planted package: uncalled = %v, want %v", got, want)
		}
		if got := exportsWithoutCallers(append(slices.Clone(tree), planted...)); !slices.Contains(got, "internal/demo.Uncalled") {
			t.Error("an uncalled export planted in the tree was not reported")
		}
	})
}

// exportsWithoutCallers lists, sorted, the exported top-level names and
// methods declared in the non-main files that no identifier in any file
// refers to. A key is "dir.Name" or "dir.(Type).Name".
func exportsWithoutCallers(files []*srcFile) []string {
	type export struct{ key, name string }
	var exports []export
	decl := map[*ast.Ident]bool{}
	for _, f := range files {
		if f.ast.Name.Name == "main" {
			continue
		}
		dir := path.Dir(f.path)
		add := func(id *ast.Ident, key string) {
			if id.IsExported() {
				exports = append(exports, export{key, id.Name})
				decl[id] = true
			}
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				key := dir + "." + d.Name.Name
				if d.Recv != nil {
					key = dir + ".(" + receiverType(d.Recv.List[0].Type) + ")." + d.Name.Name
				}
				add(d.Name, key)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, dir+"."+s.Name.Name)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n, dir+"."+n.Name)
						}
					}
				}
			}
		}
	}
	used := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decl[id] {
				used[id.Name] = true
			}
			return true
		})
	}
	var out []string
	for _, e := range exports {
		if !used[e.name] {
			out = append(out, e.key)
		}
	}
	slices.Sort(out)
	return out
}

// receiverType names a method's receiver type without its pointer or
// type parameters.
func receiverType(e ast.Expr) string {
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

// exportAllowList is every exported name kept without a non-test caller,
// each with the reason it stays. The reasons are of three kinds: library
// surface the docs name, a paper feature the API and CLI do not reach
// yet, and a hook for tests.
var exportAllowList = map[string]string{
	// Library surface the docs name.
	"sim.(Machine).FastForwardTo":                "library surface: docs/performance.md's fast-forward to a cycle",
	"sim.(Machine).FastForwardToPC":              "library surface: docs/performance.md's fast-forward to a PC",
	"sim.(Machine).RewindBarrier":                "library surface: docs/performance.md and docs/parallel.md name the lowest rewindable cycle",
	"sim.(Machine).StepBack":                     "library surface: the one-cycle rewind of docs/trace.md and docs/performance.md (the server steps back by GotoCycle)",
	"sim.(Machine).IntReg":                       "library surface: docs/architecture.md and docs/parallel.md read results through it",
	"sim.(Machine).SetIntReg":                    "library surface: docs/architecture.md's write at cycle 0",
	"sim.(Machine).FloatReg":                     "library surface: IntReg's float twin for RV32F results",
	"sim.(Machine).ReadMemory":                   "library surface: reads results out of simulated memory (Example_quicksort)",
	"sim.(Machine).RunToBreak":                   "library surface: run to a breakpoint, the debugger tour (Example_debugger)",
	"sim.(Machine).EstimateCost":                 "library surface: docs/architecture.md's area and power estimate of a run",
	"sim.NoTraceFilter":                          "library surface: NewTraceRing's doc names it as the keep-everything filter",
	"sim.WidthConfig":                            "library surface: the width presets 1, 2, 4 and 8 of the width sweep (Example_hpcOpt)",
	"internal/client.(Client).Goto":              "library surface: the Go client covers the session/goto route",
	"internal/client.(Client).SessionLog":        "library surface: the Go client covers the session/log route",
	"internal/client.(Client).SimulateBatchFrom": "library surface: the Go client covers /batch with a base checkpoint",
	"internal/client.(Client).SimulateWithTrace": "library surface: docs/trace.md's traced simulate through the client",
	"internal/client.(Client).StreamTrace":       "library surface: docs/trace.md's trace stream through the client",
	"internal/server.(Server).ResetMetrics":      "library surface: docs/api.md and docs/architecture.md name it for measuring one window",
	"internal/server.(Server).SpillSessions":     "library surface: spills every live session without a shutdown (Shutdown's spill on demand)",
	"internal/trace.Occupancy":                   "library surface: docs/trace.md's per-cycle occupancy view of the lifetimes",
	"internal/trace.(Stage).UnmarshalJSON":       "called by encoding/json through json.Unmarshaler, which the scan cannot see",
	"internal/workload.LongStreamBench":          "library surface: docs/parallel.md's ≥50M-cycle run for BenchmarkParallel",
	"internal/workload.Repros":                   "library surface: docs/fuzzing.md's checked-in co-simulation reproducers",

	// Paper features the API and CLI do not reach yet.
	"internal/isa.LoadSet":                        "paper feature: an instruction set loaded from JSON (§III-B); no route takes one yet",
	"internal/isa.(Set).All":                      "paper feature: lists the instruction set's descriptors for a user-loaded set",
	"internal/isa.(Set).PseudoCount":              "paper feature: counts a user-loaded set's pseudo-instructions",
	"internal/memory.(Main).DumpCSV":              "paper feature: the CSV memory dump (§II-C); no route exports it yet",
	"internal/memory.(Main).LoadCSV":              "paper feature: loads a CSV memory dump (§II-C); no route imports it yet",
	"internal/memory.(Main).DumpBinary":           "paper feature: the binary memory dump (§II-C); no route exports it yet",
	"internal/memory.(Main).ReadWord":             "paper feature: the memory window's word view, bypassing timing",
	"internal/memory.(Main).WriteWord":            "paper feature: the memory window's word edit, bypassing timing",
	"internal/predictor.(Predictor).CounterState": "paper feature: the branch predictor's state display (Fig. 1)",
	"internal/predictor.StateName":                "paper feature: names a two-bit counter state for that display",
	"internal/expr.(Value).Reinterpret":           "paper feature: fmv.x.w / fmv.w.x semantics for user-written instruction expressions",

	// Hooks for tests.
	"internal/core.SetSemanticBugForTesting": "test hook: plants a semantic bug the co-simulation fuzzer must catch (docs/fuzzing.md)",
}
