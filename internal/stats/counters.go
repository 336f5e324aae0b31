package stats

import (
	"reflect"

	"riscvsim/internal/cache"
	"riscvsim/internal/ckpt"
	"riscvsim/internal/config"
	"riscvsim/internal/isa"
	"riscvsim/internal/memory"
	"riscvsim/internal/predictor"
	"riscvsim/internal/rename"
)

// Counters is the statistics ledger: every additive integer a run
// accumulates, and nothing else — no rates, no names, no gauges. A
// simulation owns one and every component counts into its slot of it in
// place; core's Counters returns a settled copy. Because every leaf is a
// uint64 that only ever grows, a run's statistics form an interval
// algebra: Sub slices an interval out of two snapshots of one run, Add
// stitches adjacent intervals, and for any boundary
//
//	prefix.Add(full.Sub(prefix)) == full
//
// holds exactly. Time-parallel simulation (sim/parallel.go) stitches
// per-interval deltas this way. Rates are never combined: NewReport
// derives them once from the final counters.
//
// Add, Sub, the checkpoint codec and the completeness test walk this type
// by reflection, so the struct definition is the only list of its fields:
// a new counter is one field here, the line that increments it and the
// line in NewReport that publishes it (docs/architecture.md "Statistics").
type Counters struct {
	Cycles     uint64
	Committed  uint64
	Fetched    uint64
	Squashed   uint64
	Flops      uint64
	ROBFlushes uint64

	// Stall cycles by the stage that observed them.
	FetchStalls  uint64
	DecodeStalls uint64
	CommitStalls uint64
	WindowStalls uint64 // summed over the issue windows, one per isa.FUClass

	// Occupancy sampled once per cycle; the report divides by Cycles.
	ROBOccSum    uint64
	WindowOccSum uint64 // summed over the issue windows

	// DynamicMix counts committed instructions by class.
	DynamicMix [isa.NumInstrTypes]uint64

	// FUs is parallel to the architecture's Units.
	FUs []FUCounters

	LSU       LSUStat
	Predictor predictor.Stats
	Cache     cache.Stats
	Memory    memory.Stats
	Rename    rename.Counters
}

// FUCounters is the additive part of one functional unit's FUStat.
type FUCounters struct {
	BusyCycles uint64
	ExecCount  uint64
}

// Add returns c + o: the statistics of two adjacent intervals as one. The
// zero Counters is the identity, so a fold over intervals needs no seed.
// The result shares no storage with either operand.
func (c Counters) Add(o Counters) Counters {
	zipValue(reflect.ValueOf(&c).Elem(), reflect.ValueOf(o), func(a, b reflect.Value) {
		a.SetUint(a.Uint() + b.Uint())
	}, own)
	return c
}

// Sub returns c − o, the interval between two snapshots of one run, o
// taken earlier. Subtraction saturates at zero so a misordered pair
// degrades to zeros instead of wrapping.
func (c Counters) Sub(o Counters) Counters {
	zipValue(reflect.ValueOf(&c).Elem(), reflect.ValueOf(o), func(a, b reflect.Value) {
		a.SetUint(a.Uint() - min(a.Uint(), b.Uint()))
	}, own)
	return c
}

// own reallocates dst to the longer operand's length before it is
// written, so a result never aliases the value it was copied from.
func own(dst, src reflect.Value) int {
	n := max(dst.Len(), src.Len())
	fresh := reflect.MakeSlice(dst.Type(), n, n)
	reflect.Copy(fresh, dst)
	dst.Set(fresh)
	return src.Len()
}

// EncodeState writes the ledger as one checkpoint section: every leaf in
// declaration order. A slice's length is the machine's (one FUs entry per
// functional unit), so it does not travel.
func (c Counters) EncodeState(w *ckpt.Writer) {
	w.Section(ckpt.SecLedger)
	v := reflect.ValueOf(&c).Elem()
	zipValue(v, v, func(_, leaf reflect.Value) { w.U64(leaf.Uint()) }, machineLen)
}

// DecodeState reads a ledger EncodeState wrote into c in place. c's slices
// already have the machine's lengths.
func (c *Counters) DecodeState(r *ckpt.Reader) {
	r.Section(ckpt.SecLedger)
	v := reflect.ValueOf(c).Elem()
	zipValue(v, v, func(leaf, _ reflect.Value) { leaf.SetUint(r.U64()) }, machineLen)
}

// machineLen walks a slice the codec reads or writes to its length.
func machineLen(s, _ reflect.Value) int { return s.Len() }

// zipValue walks dst and src in step and calls leaf at every uint64. At a
// slice, span returns how many elements to walk, after sizing dst if it
// must. A leaf that is not a uint64 panics: the ledger holds additive
// integers only.
func zipValue(dst, src reflect.Value, leaf func(dst, src reflect.Value), span func(dst, src reflect.Value) int) {
	switch dst.Kind() {
	case reflect.Uint64:
		leaf(dst, src)
	case reflect.Struct:
		for i := 0; i < dst.NumField(); i++ {
			zipValue(dst.Field(i), src.Field(i), leaf, span)
		}
	case reflect.Slice:
		for i, n := 0, span(dst, src); i < n; i++ {
			zipValue(dst.Index(i), src.Index(i), leaf, span)
		}
	case reflect.Array:
		for i := 0; i < src.Len(); i++ {
			zipValue(dst.Index(i), src.Index(i), leaf, span)
		}
	default:
		panic("stats: Counters leaf of kind " + dst.Kind().String())
	}
}

// Facts is everything a report states that is not an additive counter:
// the static description of the run (architecture, static mix) and the
// state it ended in (halt story, rename gauges). When intervals are
// stitched the facts are those of the last one.
type Facts struct {
	// Arch supplies the architecture name, the core clock and the
	// functional units' names and classes.
	Arch *config.CPU
	// StaticMix counts the program's instructions by class.
	StaticMix [isa.NumInstrTypes]uint64

	HaltReason   string
	ExceptionMsg string

	RenameInUse int
	RenameFree  int
}

// NewReport turns a run's counters and facts into the statistics
// document. It is the only place a rate is computed: IPC, wall time,
// FLOP/s, mean occupancies, busy percentages, predictor accuracy and
// cache hit rate all derive here from integers.
func NewReport(c *Counters, f Facts) *Report {
	r := &Report{
		Architecture: f.Arch.Name,
		Cycles:       c.Cycles,
		Committed:    c.Committed,
		Fetched:      c.Fetched,
		Squashed:     c.Squashed,
		Flops:        c.Flops,
		ROBFlushes:   c.ROBFlushes,
		HaltReason:   f.HaltReason,
		ExceptionMsg: f.ExceptionMsg,
		StaticMix:    mixMap(&f.StaticMix),
		DynamicMix:   mixMap(&c.DynamicMix),
		FUs:          make([]FUStat, len(c.FUs)),
		LSU:          c.LSU,
		Predictor:    c.Predictor,
		PredAccuracy: c.Predictor.Accuracy(),
		Cache:        c.Cache,
		CacheHitRate: c.Cache.HitRate(),
		Memory:       c.Memory,
		Rename: rename.Stats{
			Allocations: c.Rename.Allocations,
			StallsEmpty: c.Rename.StallsEmpty,
			InUse:       f.RenameInUse,
			Free:        f.RenameFree,
		},
		FetchStalls:  c.FetchStalls,
		DecodeStalls: c.DecodeStalls,
		CommitStalls: c.CommitStalls,
		RenameStalls: c.Rename.StallsEmpty,
		WindowStalls: c.WindowStalls,
	}
	for i, fu := range c.FUs {
		unit := &f.Arch.Units[i]
		r.FUs[i] = FUStat{
			Name: unit.Name, Class: unit.Class,
			BusyCycles: fu.BusyCycles, BusyPct: pct(fu.BusyCycles, c.Cycles), ExecCount: fu.ExecCount,
		}
	}
	if c.Cycles == 0 {
		return r
	}
	cycles := float64(c.Cycles)
	r.IPC = float64(c.Committed) / cycles
	r.WallTimeSec = cycles / f.Arch.CoreClockHz
	if r.WallTimeSec > 0 {
		r.FlopsPerSec = float64(c.Flops) / r.WallTimeSec
	}
	r.ROBOccupancy = float64(c.ROBOccSum) / cycles
	r.WindowOccup = float64(c.WindowOccSum) / float64(c.Cycles*isa.NumFUClasses)
	return r
}

// mixMap names the non-empty classes of an instruction mix.
func mixMap(mix *[isa.NumInstrTypes]uint64) map[string]uint64 {
	m := make(map[string]uint64, len(mix))
	for t, n := range mix {
		if n != 0 {
			m[isa.InstrType(t).String()] = n
		}
	}
	return m
}
