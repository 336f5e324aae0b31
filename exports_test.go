package riscvsim

import (
	"go/types"
	"slices"
	"strings"
	"testing"
)

// TestExportsHaveCallers holds every exported name to a non-test caller.
// An exported top-level name, or an exported method of a named type, in
// a non-main package must be the object some identifier in a non-test
// file resolves to (cmd/ and bench/ included), or be listed in
// exportAllowList with the reason it stays. References are resolved by
// type (the loader in loader_test.go), so a name spelled elsewhere, a
// same-named function of another package or a same-named method of
// another type does not count as a caller. A method is called through its
// receiver type, as a method value or expression, through an interface
// method some file calls that its type implements, or through a
// standard-library interface the standard library calls it by
// (stdInterfaces: fmt.Stringer, error, the JSON and text marshalers).
//
// To keep a name no file calls, add "dir.Name" or "dir.(Type).Name" to
// exportAllowList with a reason of one of its two kinds. A listed name
// that gains a caller or no longer exists fails too, so the list only
// shrinks to what is true.
func TestExportsHaveCallers(t *testing.T) {
	tr := typedTree(t)
	std := stdInterfaces(t, tr)
	uncalled := exportsWithoutCallers(tr.pkgs, std)
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
		srcs := map[string]string{
			"internal/demo/demo.go": "package demo\n" +
				"func Uncalled() {}\n" +
				"func Called() {}\n" +
				"func ParseType() {}\n" +
				"type T struct{}\n" +
				"func (T) Method() {}\n" +
				"func (*T) Used() {}\n" +
				"func (T) Value() {}\n" +
				"type Other struct{}\n" +
				"func (Other) Used() {}\n" +
				"type Shape interface{ Area() int }\n" +
				"type Square struct{}\n" +
				"func (Square) Area() int { return 1 }\n" +
				"type Label int\n" +
				"func (Label) String() string { return \"\" }\n" +
				"func unexported() {}\n",
			"internal/demo2/demo2.go": "package demo2\n" +
				"func ParseType() {}\n",
			"cmd/demo/main.go": "package main\n" +
				"import (\"fmt\"; \"riscvsim/internal/demo\"; \"riscvsim/internal/demo2\")\n" +
				"func main() {\n" +
				"\tvar t demo.T\n\tdemo.Called()\n\tdemo2.ParseType()\n\tt.Used()\n\tv := t.Value\n\tv()\n" +
				"\tvar s demo.Shape = demo.Square{}\n\ts.Area()\n\tfmt.Println(demo.Label(1))\n" +
				"}\n" +
				"func Exported() {}\n",
		}
		l, err := tr.plant(srcs)
		if err != nil {
			t.Fatal(err)
		}
		if len(l.errs) > 0 {
			t.Fatalf("planted packages do not type-check: %v", l.errs)
		}
		// ParseType: a same-named function of another package is called.
		// (Other).Used: a same-named method of another type is called.
		want := []string{"internal/demo.(Other).Used", "internal/demo.(T).Method", "internal/demo.ParseType", "internal/demo.Uncalled"}
		if got := exportsWithoutCallers(l.pkgs, std); !slices.Equal(got, want) {
			t.Errorf("planted packages: uncalled = %v, want %v", got, want)
		}
		if got := exportsWithoutCallers(append(slices.Clone(tr.pkgs), l.pkgs...), std); !slices.Contains(got, "internal/demo.Uncalled") {
			t.Error("an uncalled export planted in the tree was not reported")
		}
	})
}

// exportsWithoutCallers lists, sorted, the exported top-level names and
// exported methods of named types declared in the non-main packages of
// pkgs that no identifier in pkgs resolves to, and that no used interface
// method or standard-library interface in std reaches. A key is
// "dir.Name" or "dir.(Type).Name".
func exportsWithoutCallers(pkgs []*typedPkg, std []*types.Interface) []string {
	used := map[types.Object]bool{}
	var calls []*types.Func // the interface methods used
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			if f, ok := obj.(*types.Func); ok {
				if recv := f.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) && !slices.Contains(calls, f) {
					calls = append(calls, f)
				}
				obj = f.Origin()
			}
			used[obj] = true
		}
	}
	implements := func(t types.Type, it types.Type) bool {
		it = it.Underlying()
		return types.Implements(t, it.(*types.Interface)) || types.Implements(types.NewPointer(t), it.(*types.Interface))
	}
	reached := func(m *types.Func, recv types.Type) bool {
		for _, f := range calls {
			if f.Name() == m.Name() && implements(recv, f.Signature().Recv().Type()) {
				return true
			}
		}
		for _, it := range std {
			if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, m.Name()); obj != nil && implements(recv, it) {
				return true
			}
		}
		return false
	}
	var out []string
	for _, p := range pkgs {
		if p.types.Name() == "main" {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				out = append(out, objName(obj))
			}
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok || types.IsInterface(named) {
				continue
			}
			for m := range named.Methods() {
				if m.Exported() && !used[m] && !reached(m, named) {
					out = append(out, objName(m))
				}
			}
		}
	}
	slices.Sort(out)
	return out
}

// stdInterfaces are the standard library's interfaces whose methods the
// standard library calls on a repository type: fmt's Stringer, error, and
// the JSON and text marshalers of encoding/json and encoding.
func stdInterfaces(t *testing.T, tr *loader) []*types.Interface {
	t.Helper()
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, name := range []string{"fmt.Stringer", "encoding/json.Marshaler", "encoding/json.Unmarshaler", "encoding.TextMarshaler", "encoding.TextUnmarshaler"} {
		i := strings.LastIndex(name, ".")
		pkg, err := tr.Import(name[:i])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pkg.Scope().Lookup(name[i+1:]).Type().Underlying().(*types.Interface))
	}
	return out
}

// exportAllowList is every exported name kept without a non-test caller,
// each with the reason it stays. The reasons are of two kinds: library
// surface the docs name, and a hook for tests. A paper feature no route
// or flag reaches gets one, or goes.
var exportAllowList = map[string]string{
	// Library surface the docs name.
	"sim.(Machine).FastForwardTo":                "library surface: docs/performance.md's fast-forward to a cycle",
	"sim.(Machine).FastForwardToPC":              "library surface: docs/performance.md's fast-forward to a PC",
	"sim.(Machine).StepBack":                     "library surface: the one-cycle rewind of docs/trace.md and docs/performance.md (the server steps back by GotoCycle)",
	"sim.(Machine).IntReg":                       "library surface: docs/architecture.md and docs/parallel.md read results through it",
	"sim.(Machine).SetIntReg":                    "library surface: docs/architecture.md's write at cycle 0",
	"sim.(Machine).FloatReg":                     "library surface: IntReg's float twin for RV32F results",
	"sim.(Machine).ReadMemory":                   "library surface: reads results out of simulated memory (Example_quicksort)",
	"sim.(Machine).EstimateCost":                 "library surface: docs/architecture.md's area and power estimate of a run",
	"sim.NoTraceFilter":                          "library surface: NewTraceRing's doc names it as the keep-everything filter",
	"sim.EngineSpecialized":                      "library surface: docs/architecture.md names it, the default of SetEngineMode's three engines",
	"sim.WidthConfig":                            "library surface: the width presets 1, 2, 4 and 8 of the width sweep (Example_hpcOpt)",
	"internal/client.(Client).Compile":           "library surface: the Go client covers the compile route",
	"internal/client.(Client).Stream":            "library surface: the Go client covers the session/stream route",
	"internal/client.(Client).Goto":              "library surface: the Go client covers the session/goto route",
	"internal/client.(Client).SessionLog":        "library surface: the Go client covers the session/log route",
	"internal/client.(Client).SimulateBatchFrom": "library surface: the Go client covers /batch with a base checkpoint",
	"internal/client.(Client).SimulateWithTrace": "library surface: docs/trace.md's traced simulate through the client",
	"internal/client.(Client).StreamTrace":       "library surface: docs/trace.md's trace stream through the client",
	"internal/server.(Server).ResetMetrics":      "library surface: docs/api.md and docs/architecture.md name it for measuring one window",
	"internal/server.(Server).SpillSessions":     "library surface: spills every live session without a shutdown (Shutdown's spill on demand)",
	"internal/trace.Occupancy":                   "library surface: docs/trace.md's per-cycle occupancy view of the lifetimes",
	"internal/workload.LongStreamBench":          "library surface: docs/parallel.md's ≥50M-cycle run for BenchmarkParallel",
	"internal/workload.Repros":                   "library surface: docs/fuzzing.md's checked-in co-simulation reproducers",

	// Hooks for tests.
	"internal/isa.(Set).All":                 "test hook: the core exec tests walk every descriptor of the instruction set",
	"sim.(Machine).Program":                  "test hook: the server tests check which Program machines share",
	"internal/store.(Mem).Corrupt":           "test hook: the server tests corrupt a stored blob",
	"internal/store.(Mem).Len":               "test hook: the server tests count the blobs a memory store holds",
	"internal/core.SetSemanticBugForTesting": "test hook: plants a semantic bug the co-simulation fuzzer must catch (docs/fuzzing.md)",
}
