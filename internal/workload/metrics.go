package workload

import (
	"fmt"
	"reflect"
	"sort"
	"strings"

	"riscvsim/internal/stats"
)

// Metrics is the typed per-workload metrics row the suite reduces every
// run to: the architectural quality numbers (IPC/CPI, branch MPKI, cache
// miss rate, stalls, unit utilization) rather than the full statistics
// document. The core is deterministic, so for a fixed architecture every
// field is exact — goldens compare with ==, and any drift is a
// correctness signal, not noise.
type Metrics struct {
	Workload string `json:"workload"`

	// Progress counters.
	Cycles    uint64 `json:"cycles"`
	Committed uint64 `json:"committed"`
	Fetched   uint64 `json:"fetched"`
	Squashed  uint64 `json:"squashed"`

	// Headline rates (rounded to 6 decimals so goldens are stable and
	// readable).
	IPC float64 `json:"ipc"`
	CPI float64 `json:"cpi"`

	// Branch behavior: mispredicts per 1000 committed instructions and
	// the predictor's direction accuracy.
	BranchMPKI   float64 `json:"branchMpki"`
	PredAccuracy float64 `json:"predAccuracy"`

	// L1 cache (the simulated core's unified data-side L1; instruction
	// fetch is modeled as ideal) and main-memory traffic.
	CacheMissRate float64 `json:"cacheMissRate"`
	CacheAccesses uint64  `json:"cacheAccesses"`
	MemReads      uint64  `json:"memReads"`
	MemWrites     uint64  `json:"memWrites"`

	// Pipeline back-pressure accounting.
	ROBFlushes    uint64 `json:"robFlushes"`
	FetchStalls   uint64 `json:"fetchStalls"`
	DecodeStalls  uint64 `json:"decodeStalls"`
	CommitStalls  uint64 `json:"commitStalls"`
	RenameStalls  uint64 `json:"renameStalls"`
	WindowStalls  uint64 `json:"windowStalls"`
	StoreForwards uint64 `json:"storeForwards"`

	// FUUtil is the busy-cycle percentage per functional unit, keyed by
	// unit name (JSON object keys marshal sorted, keeping goldens
	// byte-stable).
	FUUtil map[string]float64 `json:"fuUtil"`

	// HaltReason records why the run ended; anything but a clean
	// environment-call/return exit (e.g. "cycle limit") is a regression.
	HaltReason string `json:"haltReason"`
}

// FromReport reduces a finished run's statistics document to the
// suite's metrics row. It is the single reduction used by the library
// runner, the server endpoint and the golden generator, so all three
// produce identical rows for identical runs.
func FromReport(w Workload, r *stats.Report) Metrics {
	m := Metrics{
		Workload:      w.Name,
		Cycles:        r.Cycles,
		Committed:     r.Committed,
		Fetched:       r.Fetched,
		Squashed:      r.Squashed,
		IPC:           round6(r.IPC),
		PredAccuracy:  round6(r.PredAccuracy),
		CacheAccesses: r.Cache.Accesses,
		MemReads:      r.Memory.Reads,
		MemWrites:     r.Memory.Writes,
		ROBFlushes:    r.ROBFlushes,
		FetchStalls:   r.FetchStalls,
		DecodeStalls:  r.DecodeStalls,
		CommitStalls:  r.CommitStalls,
		RenameStalls:  r.RenameStalls,
		WindowStalls:  r.WindowStalls,
		StoreForwards: r.LSU.Forwards,
		FUUtil:        make(map[string]float64, len(r.FUs)),
		HaltReason:    r.HaltReason,
	}
	if r.Committed > 0 {
		m.CPI = round6(float64(r.Cycles) / float64(r.Committed))
		m.BranchMPKI = round6(1000 * float64(r.Predictor.Mispredicts) / float64(r.Committed))
	}
	// A run with no cache accesses has a 0 miss rate, not 1-HitRate's 1.
	if r.Cache.Accesses > 0 {
		m.CacheMissRate = round6(float64(r.Cache.Misses) / float64(r.Cache.Accesses))
	}
	for _, fu := range r.FUs {
		m.FUUtil[fu.Name] = round6(fu.BusyPct)
	}
	return m
}

// round6 rounds to 6 decimals: exact in every metric's realistic range,
// stable to read in golden diffs.
func round6(v float64) float64 {
	if v < 0 {
		return -round6(-v)
	}
	return float64(uint64(v*1e6+0.5)) / 1e6
}

// Report is the suite result: one metrics row per workload, in corpus
// order, plus the architecture the suite ran against.
type Report struct {
	// Architecture is the configuration's display name.
	Architecture string `json:"architecture"`
	// ConfigFingerprint digests the full architecture document, so a
	// metrics comparison can tell "the architecture changed" apart from
	// "the simulator changed" (goldens embed it).
	ConfigFingerprint string `json:"configFingerprint"`
	// Workloads carries one row per executed workload.
	Workloads []Metrics `json:"workloads"`
}

// Table renders the report as an aligned text table for the CLI.
func (r *Report) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Workload suite — %s (config %s)\n\n", r.Architecture, r.ConfigFingerprint)
	fmt.Fprintf(&sb, "%-16s %10s %10s %7s %7s %8s %8s %9s %8s\n",
		"workload", "cycles", "committed", "IPC", "CPI", "MPKI", "miss%", "flushes", "stalls")
	for _, m := range r.Workloads {
		stalls := m.RenameStalls + m.WindowStalls + m.CommitStalls
		fmt.Fprintf(&sb, "%-16s %10d %10d %7.3f %7.3f %8.2f %7.2f%% %9d %8d\n",
			m.Workload, m.Cycles, m.Committed, m.IPC, m.CPI,
			m.BranchMPKI, 100*m.CacheMissRate, m.ROBFlushes, stalls)
	}
	return sb.String()
}

// FieldDiff is one drifted metric of one workload.
type FieldDiff struct {
	Field string `json:"field"`
	Want  string `json:"want"`
	Got   string `json:"got"`
}

// DiffMetrics compares two metrics rows field by field (exact match: the
// core is deterministic, so any difference is drift). Each field goes by
// its JSON name, the label the goldens carry. The receiver order is
// (want, got) — want is the golden/baseline side.
func DiffMetrics(want, got Metrics) []FieldDiff {
	var diffs []FieldDiff
	add := func(field string, w, g any) {
		ws, gs := fmt.Sprint(w), fmt.Sprint(g)
		if ws != gs {
			diffs = append(diffs, FieldDiff{Field: field, Want: ws, Got: gs})
		}
	}
	wv, gv := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := 0; i < wv.NumField(); i++ {
		name, _, _ := strings.Cut(wv.Type().Field(i).Tag.Get("json"), ",")
		// The row's name is not a metric; the per-unit map follows the
		// scalars, unit by unit.
		if name != "workload" && name != "fuUtil" {
			add(name, wv.Field(i).Interface(), gv.Field(i).Interface())
		}
	}
	units := make(map[string]bool)
	for u := range want.FUUtil {
		units[u] = true
	}
	for u := range got.FUUtil {
		units[u] = true
	}
	sorted := make([]string, 0, len(units))
	for u := range units {
		sorted = append(sorted, u)
	}
	sort.Strings(sorted)
	for _, u := range sorted {
		var w, g any = "(absent)", "(absent)"
		if v, ok := want.FUUtil[u]; ok {
			w = v
		}
		if v, ok := got.FUUtil[u]; ok {
			g = v
		}
		add("fuUtil."+u, w, g)
	}
	return diffs
}
