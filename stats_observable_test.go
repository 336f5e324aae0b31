package riscvsim

import (
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"riscvsim/internal/config"
	"riscvsim/internal/stats"
	"riscvsim/internal/workload"
)

// statAllowList names the report's numeric leaves that may read 0 on
// every corpus workload and planted kernel, each with the reason it
// stays. A listed leaf that moves, or that is no leaf, fails
// TestEveryStatisticObservable.
var statAllowList = map[string]string{}

// plantedKernel is a program kept outside the corpus, as workload.Repros
// is, that moves a statistic no corpus workload on a preset moves, on the
// architecture it needs. A kernel with cycles set is stopped there, as a
// session step stops, instead of running to its halt.
type plantedKernel struct {
	name   string
	cfg    func() *config.CPU
	src    string
	cycles uint64
}

var plantedKernels = []plantedKernel{
	// A byte store covers only part of the word a younger load reads, and
	// a slow division ahead keeps it from committing, so the load waits.
	{name: "partial overlap", cfg: config.Default, src: `
	li   t2, 1024
	li   t4, 7
	li   t5, 3
	div  t4, t4, t5
	sb   t2, 0(t2)
	lw   t1, 0(t2)
	ret
`},
	// A run that halts has committed everything and freed every rename
	// register; a machine stepped mid-run holds some.
	{name: "registers in flight", cfg: config.Default, cycles: 40, src: `
loop:
	addi t0, t0, 1
	addi t1, t1, 2
	j    loop
`},
	// A rename file at the minimum the schema allows (the ROB's size)
	// runs out while committed copies are still referenced.
	{name: "rename file exhausted", cfg: func() *config.CPU {
		cfg := config.Default()
		cfg.ROBSize, cfg.RenameRegisters = 8, 8
		return cfg
	}, src: `
	fcvt.s.w ft0, x0
	fadd.s ft0, ft0, ft0
	fadd.s ft1, ft0, ft0
	fadd.s ft2, ft0, ft0
	fadd.s ft3, ft0, ft0
	fadd.s ft4, ft0, ft0
	fadd.s ft5, ft1, ft2
	fadd.s ft6, ft3, ft4
	fadd.s ft7, ft5, ft6
	fadd.s ft0, ft7, ft7
	fadd.s ft1, ft0, ft0
	fadd.s ft2, ft1, ft1
	ret
`},
}

// TestEveryStatisticObservable holds every numeric leaf of stats.Report
// to meaning something: each must read non-zero on some corpus workload
// under the default, scalar or wide-4 preset, or on a planted kernel, or
// sit in statAllowList with a reason. A leaf is named by its JSON path,
// slice indices collapsed ("functionalUnits[].busyCycles") and map values
// as "{}" ("dynamicMix{}").
func TestEveryStatisticObservable(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("checks what the statistics count, not concurrency; race instrumentation only slows the corpus runs")
	}
	type run struct {
		cfg    *config.CPU
		w      workload.Workload
		cycles uint64 // 0: run to the halt
	}
	var runs []run
	for _, cfg := range []*config.CPU{config.Default(), config.Scalar(), config.Wide4()} {
		for _, w := range workload.Corpus() {
			runs = append(runs, run{cfg: cfg, w: w})
		}
	}
	for _, k := range plantedKernels {
		w := workload.Workload{Name: "planted/" + k.name, Source: k.src, MaxCycles: 1_000_000}
		runs = append(runs, run{cfg: k.cfg(), w: w, cycles: k.cycles})
	}
	reports := make([]*stats.Report, len(runs))
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := workload.NewMachine(r.cfg, r.w)
			if err != nil {
				t.Errorf("%s on %s: %v", r.w.Name, r.cfg.Name, err)
				return
			}
			if r.cycles > 0 {
				m.StepN(r.cycles)
			} else if m.Run(r.w.MaxCycles); !m.Halted() {
				t.Errorf("%s on %s: did not halt in %d cycles", r.w.Name, r.cfg.Name, r.w.MaxCycles)
			}
			reports[i] = m.Report()
		}()
	}
	wg.Wait()

	// moved maps every leaf to whether some run read it non-zero, and
	// by to the first run that did.
	moved, by := map[string]bool{}, map[string]string{}
	for i, rep := range reports {
		if rep == nil {
			continue
		}
		numericLeaves(reflect.ValueOf(rep).Elem(), "", func(path string, nonZero bool) {
			if nonZero && !moved[path] {
				by[path] = runs[i].w.Name + " on " + runs[i].cfg.Name
			}
			moved[path] = moved[path] || nonZero
		})
	}
	for path := range statAllowList {
		if _, ok := moved[path]; !ok {
			t.Errorf("%s is allow-listed but is no numeric leaf of stats.Report: drop it from statAllowList", path)
		}
	}
	paths := make([]string, 0, len(moved))
	for path := range moved {
		paths = append(paths, path)
	}
	slices.Sort(paths)
	t.Logf("%d numeric leaves", len(paths))
	for _, path := range paths {
		t.Run(path, func(t *testing.T) {
			switch reason, listed := statAllowList[path]; {
			case !moved[path] && !listed:
				t.Errorf("%s reads 0 on every corpus workload, preset and planted kernel: count it, delete it, plant a kernel that moves it, or allow-list it with a reason", path)
			case moved[path] && listed:
				t.Errorf("%s is allow-listed (%s) but %s moves it: drop it from statAllowList", path, reason, by[path])
			}
		})
	}
}

// numericLeaves calls leaf for every number under v, named by its JSON
// path below prefix. An empty slice or map still names its element's
// leaves, read as zero, so a leaf no run fills is still seen.
func numericLeaves(v reflect.Value, prefix string, leaf func(path string, nonZero bool)) {
	switch v.Kind() {
	case reflect.Uint64, reflect.Int, reflect.Float64:
		leaf(prefix, !v.IsZero())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if !f.IsExported() || name == "-" {
				continue
			}
			if prefix != "" {
				name = prefix + "." + name
			}
			numericLeaves(v.Field(i), name, leaf)
		}
	case reflect.Slice:
		numericLeaves(reflect.Zero(v.Type().Elem()), prefix+"[]", leaf)
		for i := 0; i < v.Len(); i++ {
			numericLeaves(v.Index(i), prefix+"[]", leaf)
		}
	case reflect.Map:
		numericLeaves(reflect.Zero(v.Type().Elem()), prefix+"{}", leaf)
		for it := v.MapRange(); it.Next(); {
			numericLeaves(it.Value(), prefix+"{}", leaf)
		}
	}
}
