// Package workload is the simulator's embedded benchmark corpus: a fixed
// set of small, self-contained RISC-V programs, each chosen to stress one
// microarchitectural behavior (branch prediction, pointer chasing,
// streaming bandwidth, FP latency, store pressure, cache conflicts...),
// plus a Suite runner that executes the corpus against an architecture
// and reduces every run to a typed metrics row.
//
// The corpus turns the simulator into a measuring instrument: the core is
// deterministic, so for a fixed architecture every metric is exact, and
// the golden baselines under testdata/golden/ make any drift — a changed
// IPC, one extra mispredict — a hard CI signal rather than noise
// (docs/workloads.md).
package workload

//go:generate go run riscvsim/internal/workload/gengolden -update

import (
	"fmt"
	"strings"
)

// Workload is one corpus entry: a program plus its behavioral profile.
type Workload struct {
	// Name is the stable identifier (golden file name, filter key).
	Name string `json:"name"`
	// Profile is a one-line behavioral characterization: what the
	// program stresses and what metric it is expected to move.
	Profile string `json:"profile"`
	// Tags classify the behavior for filtering ("branch-heavy",
	// "memory-bound", "fp", ...).
	Tags []string `json:"tags"`
	// Source is the RV32IMF assembly text; Entry its entry label.
	Source string `json:"-"`
	Entry  string `json:"-"`
	// MaxCycles bounds the run. Every corpus program halts far below
	// its bound on every preset; hitting the bound is itself a
	// regression (the suite reports haltReason "cycle limit").
	MaxCycles uint64 `json:"-"`
}

// corpus is the embedded workload set, in canonical (report) order.
var corpus = []Workload{
	{
		Name:      "sort-insertion",
		Profile:   "insertion sort of 96 LCG words; data-dependent inner loop makes the backward branch hard to predict (branch MPKI)",
		Tags:      []string{"branch-heavy", "integer", "sort"},
		Source:    srcSortInsertion,
		Entry:     "main",
		MaxCycles: 1_000_000,
	},
	{
		Name:      "binsearch",
		Profile:   "1024 binary searches over a sorted table; ~50% taken compare branches the predictor cannot learn",
		Tags:      []string{"branch-heavy", "integer", "search"},
		Source:    srcBinSearch,
		Entry:     "main",
		MaxCycles: 2_000_000,
	},
	{
		Name:      "list-walk",
		Profile:   "serial pointer chase through a shuffled 32 KiB linked list; load-to-load dependence plus capacity misses bound IPC",
		Tags:      []string{"memory-bound", "pointer-chasing", "latency"},
		Source:    srcListWalk,
		Entry:     "main",
		MaxCycles: 4_000_000,
	},
	{
		Name:      "memcpy-stream",
		Profile:   "word-wise 8 KiB copy, 4 passes; balanced unit-stride load/store streaming at L1 capacity",
		Tags:      []string{"memory-bound", "streaming", "bandwidth"},
		Source:    srcMemcpyStream,
		Entry:     "main",
		MaxCycles: 2_000_000,
	},
	{
		Name:      "axpy-stream",
		Profile:   "single-precision y = a*x + y over 512 elements, 8 passes; FP multiply+add streaming (FP unit utilization)",
		Tags:      []string{"fp", "streaming", "bandwidth"},
		Source:    srcAxpyStream,
		Entry:     "main",
		MaxCycles: 2_000_000,
	},
	{
		Name:      "matmul-blocked",
		Profile:   "16x16 integer matmul, inner loop unrolled x4; dense mul pressure with regular reuse",
		Tags:      []string{"integer", "compute", "ilp"},
		Source:    srcMatmulBlocked,
		Entry:     "main",
		MaxCycles: 1_000_000,
	},
	{
		Name:      "fib-recursive",
		Profile:   "naive recursive fib(14) with an sp-managed stack; call/return chains and return-target prediction",
		Tags:      []string{"branch-heavy", "recursion", "stack"},
		Source:    srcFibRecursive,
		Entry:     "main",
		MaxCycles: 1_000_000,
	},
	{
		Name:      "fp-horner",
		Profile:   "degree-12 Horner polynomial over 128 points; one serial fmul/fadd chain per point exposes FP latency",
		Tags:      []string{"fp", "latency", "compute"},
		Source:    srcFPHorner,
		Entry:     "main",
		MaxCycles: 1_000_000,
	},
	{
		Name:      "memset-store",
		Profile:   "16 KiB pattern fill, 4 passes; store-buffer and write-back pressure with almost no loads",
		Tags:      []string{"memory-bound", "store-bound", "streaming"},
		Source:    srcMemsetStore,
		Entry:     "main",
		MaxCycles: 2_000_000,
	},
	{
		Name:      "stride-thrash",
		Profile:   "4 KiB-stride walk mapping 8 lines onto one set of the default 4-way L1; pure conflict-miss torture",
		Tags:      []string{"memory-bound", "cache-thrash", "latency"},
		Source:    srcStrideThrash,
		Entry:     "main",
		MaxCycles: 4_000_000,
	},
	{
		Name:      "bitmix",
		Profile:   "register-only xorshift mixing, 4096 rounds; no memory traffic — the fetch/rename/commit width IPC ceiling",
		Tags:      []string{"integer", "compute", "ilp"},
		Source:    srcBitMix,
		Entry:     "main",
		MaxCycles: 1_000_000,
	},
	{
		Name:      "gcd-euclid",
		Profile:   "Euclid gcd by remainder over 64 LCG pairs; 16-cycle rem serializes on the single M-capable FX unit",
		Tags:      []string{"integer", "long-latency", "divider"},
		Source:    srcGCDEuclid,
		Entry:     "main",
		MaxCycles: 1_000_000,
	},
	{
		Name:      "vcall-dispatch",
		Profile:   "virtual dispatch through interleaved vtables, 32 passes of jalr calls; BTB and indirect-target resolution",
		Tags:      []string{"branch-heavy", "indirect", "btb"},
		Source:    srcVcallDispatch,
		Entry:     "main",
		MaxCycles: 1_000_000,
	},
}

// Corpus returns the embedded workloads in canonical order. The slice is
// a copy; callers may reorder or filter it freely.
func Corpus() []Workload {
	out := make([]Workload, len(corpus))
	copy(out, corpus)
	return out
}

// Names returns the corpus workload names in canonical order.
func Names() []string {
	names := make([]string, len(corpus))
	for i, w := range corpus {
		names[i] = w.Name
	}
	return names
}

// ByName looks a workload up by its exact name.
func ByName(name string) (Workload, bool) {
	for _, w := range corpus {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Match selects workloads by filter: a comma-separated list of terms,
// each matching a workload whose name contains the term or that carries
// the term as an exact tag. The empty filter selects the whole corpus.
// Canonical order is preserved; an error names the first term matching
// nothing.
func Match(filter string) ([]Workload, error) {
	filter = strings.TrimSpace(filter)
	if filter == "" || filter == "all" {
		return Corpus(), nil
	}
	selected := make(map[string]bool)
	for _, term := range strings.Split(filter, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		// "all" keeps its meaning inside a list too (it would otherwise
		// substring-match only vcall-dispatch).
		if term == "all" {
			return Corpus(), nil
		}
		hit := false
		for _, w := range corpus {
			if workloadMatches(w, term) {
				selected[w.Name] = true
				hit = true
			}
		}
		if !hit {
			return nil, fmt.Errorf("workload: filter term %q matches nothing (workloads: %s)",
				term, strings.Join(Names(), ", "))
		}
	}
	var out []Workload
	for _, w := range corpus {
		if selected[w.Name] {
			out = append(out, w)
		}
	}
	return out, nil
}

// workloadMatches reports whether one filter term selects w.
func workloadMatches(w Workload, term string) bool {
	if strings.Contains(w.Name, term) {
		return true
	}
	for _, tag := range w.Tags {
		if tag == term {
			return true
		}
	}
	return false
}
