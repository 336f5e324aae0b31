// Package stats defines the runtime-statistics report the simulator
// produces: static and dynamic instruction mixes, per-unit busy cycles,
// cache and predictor statistics, FLOPs, IPC, wall time and more — the
// content of the paper's Runtime Statistics window (§II-D).
package stats

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"riscvsim/internal/cache"
	"riscvsim/internal/config"
	"riscvsim/internal/isa"
	"riscvsim/internal/jsonenc"
	"riscvsim/internal/memory"
	"riscvsim/internal/predictor"
	"riscvsim/internal/rename"
)

// FUStat is the utilization of one functional unit.
type FUStat struct {
	Name       string  `json:"name"`
	Class      string  `json:"class"`
	BusyCycles uint64  `json:"busyCycles"`
	BusyPct    float64 `json:"busyPct"`
	ExecCount  uint64  `json:"execCount"`
}

// LSUStat is the load/store pipeline's counters; the LSU counts in it.
type LSUStat struct {
	Loads          uint64 `json:"loads"`
	Stores         uint64 `json:"stores"`
	Forwards       uint64 `json:"forwards"`
	StallsUnknown  uint64 `json:"stallsUnknownAddr"`    // load stalled behind a store with unknown address
	StallsPartial  uint64 `json:"stallsPartialOverlap"` // load stalled on a partial overlap
	BusBusyCycles  uint64 `json:"busBusyCycles"`        // memory-port accesses: drained stores plus loads sent to the port
	LoadBufStalls  uint64 `json:"loadBufferFullStalls"`
	StoreBufStalls uint64 `json:"storeBufferFullStalls"`
}

// Report is the complete runtime-statistics document. It serializes to
// JSON for the web client and formats as text for the CLI.
type Report struct {
	Architecture string `json:"architecture"`

	// Headline counters (the right-hand status bar's default view).
	Cycles      uint64  `json:"cycles"`
	Committed   uint64  `json:"committedInstructions"`
	Fetched     uint64  `json:"fetchedInstructions"`
	Squashed    uint64  `json:"squashedInstructions"`
	IPC         float64 `json:"ipc"`
	WallTimeSec float64 `json:"wallTimeSec"`

	// Expanded view.
	Flops        uint64  `json:"flops"`
	FlopsPerSec  float64 `json:"flopsPerSec"`
	ROBFlushes   uint64  `json:"robFlushes"`
	HaltReason   string  `json:"haltReason,omitempty"`
	ExceptionMsg string  `json:"exception,omitempty"`

	// Instruction mixes by class (kArithmetic, kLoad, ...).
	StaticMix  map[string]uint64 `json:"staticMix"`
	DynamicMix map[string]uint64 `json:"dynamicMix"`

	// Subsystem statistics.
	FUs          []FUStat        `json:"functionalUnits"`
	LSU          LSUStat         `json:"lsu"`
	Predictor    predictor.Stats `json:"predictor"`
	PredAccuracy float64         `json:"predictorAccuracy"`
	Cache        cache.Stats     `json:"cache"`
	CacheHitRate float64         `json:"cacheHitRate"`
	Memory       memory.Stats    `json:"memory"`
	Rename       rename.Stats    `json:"rename"`
	FetchStalls  uint64          `json:"fetchStallCycles"`
	DecodeStalls uint64          `json:"decodeStallCycles"`
	CommitStalls uint64          `json:"commitStallCycles"`
	ROBOccupancy float64         `json:"robMeanOccupancy"`
	WindowOccup  float64         `json:"windowMeanOccupancy"`
	WindowStalls uint64          `json:"windowFullStalls"`
	RenameStalls uint64          `json:"renameFullStalls"`
}

// FormatText renders the report for terminal output, mirroring the
// statistics window's sections (paper Fig. 10).
func (r *Report) FormatText() string {
	var sb strings.Builder
	sec := func(title string) {
		fmt.Fprintf(&sb, "\n── %s %s\n", title, strings.Repeat("─", max(0, 58-len(title))))
	}
	row := func(k string, v any) { fmt.Fprintf(&sb, "  %-34s %v\n", k, v) }

	fmt.Fprintf(&sb, "Runtime statistics — %s\n", r.Architecture)
	sec("Execution")
	row("total executed cycles", r.Cycles)
	row("committed instructions", r.Committed)
	row("fetched instructions", r.Fetched)
	row("squashed instructions", r.Squashed)
	row("IPC", fmt.Sprintf("%.3f", r.IPC))
	row("wall time [s]", fmt.Sprintf("%.6g", r.WallTimeSec))
	row("FLOPs", r.Flops)
	row("FLOP/s", fmt.Sprintf("%.4g", r.FlopsPerSec))
	row("reorder buffer flushes", r.ROBFlushes)
	if r.HaltReason != "" {
		row("halt reason", r.HaltReason)
	}
	if r.ExceptionMsg != "" {
		row("exception", r.ExceptionMsg)
	}

	sec("Instruction mix (static / dynamic)")
	keys := map[string]bool{}
	for k := range r.StaticMix {
		keys[k] = true
	}
	for k := range r.DynamicMix {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	var statTotal, dynTotal uint64
	for _, k := range sorted {
		statTotal += r.StaticMix[k]
		dynTotal += r.DynamicMix[k]
	}
	for _, k := range sorted {
		st, dy := r.StaticMix[k], r.DynamicMix[k]
		row(k, fmt.Sprintf("%6d (%5.1f%%)  /  %8d (%5.1f%%)",
			st, pct(st, statTotal), dy, pct(dy, dynTotal)))
	}

	sec("Functional units")
	for _, fu := range r.FUs {
		row(fmt.Sprintf("%s (%s)", fu.Name, fu.Class),
			fmt.Sprintf("busy %8d cycles (%5.1f%%), %8d ops", fu.BusyCycles, fu.BusyPct, fu.ExecCount))
	}

	sec("Branch prediction")
	row("predictions", r.Predictor.Predictions)
	row("correct", r.Predictor.Correct)
	row("mispredictions", r.Predictor.Mispredicts)
	row("accuracy", fmt.Sprintf("%.2f%%", r.PredAccuracy*100))
	row("BTB hits / misses", fmt.Sprintf("%d / %d", r.Predictor.BTBHits, r.Predictor.BTBMisses))

	sec("L1 cache")
	row("accesses", r.Cache.Accesses)
	row("hits / misses", fmt.Sprintf("%d / %d", r.Cache.Hits, r.Cache.Misses))
	row("hit rate", fmt.Sprintf("%.2f%%", r.CacheHitRate*100))
	row("evictions / writebacks", fmt.Sprintf("%d / %d", r.Cache.Evictions, r.Cache.Writebacks))
	row("bytes written to memory", r.Memory.BytesWritten)

	sec("Memory & pipeline")
	row("memory reads / writes", fmt.Sprintf("%d / %d", r.Memory.Reads, r.Memory.Writes))
	row("loads / stores executed", fmt.Sprintf("%d / %d", r.LSU.Loads, r.LSU.Stores))
	row("store-to-load forwards", r.LSU.Forwards)
	row("disambiguation stalls", r.LSU.StallsUnknown+r.LSU.StallsPartial)
	row("fetch stall cycles", r.FetchStalls)
	row("rename-file stalls", r.RenameStalls)
	row("window-full stalls", r.WindowStalls)
	row("ROB mean occupancy", fmt.Sprintf("%.2f", r.ROBOccupancy))
	row("rename registers in use", r.Rename.InUse)
	return sb.String()
}

func pct(part, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(part) / float64(total)
}

// reportKeys are Report's members as its struct tags name them.
var reportKeys = []string{
	"architecture", "cycles", "committedInstructions", "fetchedInstructions", "squashedInstructions",
	"ipc", "wallTimeSec", "flops", "flopsPerSec", "robFlushes", "haltReason", "exception",
	"staticMix", "dynamicMix", "functionalUnits", "lsu", "predictor", "predictorAccuracy",
	"cache", "cacheHitRate", "memory", "rename", "fetchStallCycles", "decodeStallCycles",
	"commitStallCycles", "robMeanOccupancy", "windowMeanOccupancy", "windowFullStalls", "renameFullStalls",
}

// names are the strings of fixed sets a report repeats — instruction
// classes, unit classes, the presets' names and unit names — which its
// decoder reads without allocating (jsonenc.Reader.Intern).
var names = sync.OnceValue(func() map[string]string {
	m := make(map[string]string)
	for t := range isa.NumInstrTypes {
		m[isa.InstrType(t).String()] = isa.InstrType(t).String()
	}
	for c := range isa.NumFUClasses {
		m[isa.FUClass(c).String()] = isa.FUClass(c).String()
	}
	for _, cfg := range config.Presets() {
		m[cfg.Name] = cfg.Name
		for _, u := range cfg.Units {
			m[u.Name] = u.Name
		}
	}
	return m
})

// AppendJSON appends the report without reflection: exactly the bytes
// encoding/json writes for it from the struct tags, mixes in key order.
// A NaN or infinite rate fails it as it fails encoding/json, with the
// same *json.UnsupportedValueError.
func (rep *Report) AppendJSON(dst []byte) ([]byte, error) {
	if err := rep.unsupportedRate(); err != nil {
		return dst, err
	}
	dst = jsonenc.String(append(dst, `{"architecture":`...), rep.Architecture)
	dst = appendUint(dst, `,"cycles":`, rep.Cycles)
	dst = appendUint(dst, `,"committedInstructions":`, rep.Committed)
	dst = appendUint(dst, `,"fetchedInstructions":`, rep.Fetched)
	dst = appendUint(dst, `,"squashedInstructions":`, rep.Squashed)
	dst = jsonenc.Float(append(dst, `,"ipc":`...), rep.IPC)
	dst = jsonenc.Float(append(dst, `,"wallTimeSec":`...), rep.WallTimeSec)
	dst = appendUint(dst, `,"flops":`, rep.Flops)
	dst = jsonenc.Float(append(dst, `,"flopsPerSec":`...), rep.FlopsPerSec)
	dst = appendUint(dst, `,"robFlushes":`, rep.ROBFlushes)
	if rep.HaltReason != "" {
		dst = jsonenc.String(append(dst, `,"haltReason":`...), rep.HaltReason)
	}
	if rep.ExceptionMsg != "" {
		dst = jsonenc.String(append(dst, `,"exception":`...), rep.ExceptionMsg)
	}
	dst = appendMix(append(dst, `,"staticMix":`...), rep.StaticMix)
	dst = appendMix(append(dst, `,"dynamicMix":`...), rep.DynamicMix)
	dst = append(dst, `,"functionalUnits":`...)
	if rep.FUs == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range rep.FUs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = rep.FUs[i].appendJSON(dst)
		}
		dst = append(dst, ']')
	}
	l := &rep.LSU
	dst = appendCounters(append(dst, `,"lsu":`...), lsuKeys, l.Loads, l.Stores, l.Forwards, l.StallsUnknown,
		l.StallsPartial, l.BusBusyCycles, l.LoadBufStalls, l.StoreBufStalls)
	p := &rep.Predictor
	dst = appendCounters(append(dst, `,"predictor":`...), predictorKeys, p.Predictions, p.Correct, p.Mispredicts, p.BTBHits, p.BTBMisses)
	dst = jsonenc.Float(append(dst, `,"predictorAccuracy":`...), rep.PredAccuracy)
	c := &rep.Cache
	dst = appendCounters(append(dst, `,"cache":`...), cacheKeys, c.Accesses, c.Hits, c.Misses, c.Evictions, c.Writebacks)
	dst = jsonenc.Float(append(dst, `,"cacheHitRate":`...), rep.CacheHitRate)
	m := &rep.Memory
	dst = appendCounters(append(dst, `,"memory":`...), memoryKeys, m.Reads, m.Writes, m.BytesRead, m.BytesWritten)
	dst = appendUint(dst, `,"rename":{"allocations":`, rep.Rename.Allocations)
	dst = appendUint(dst, `,"stallsEmpty":`, rep.Rename.StallsEmpty)
	dst = strconv.AppendInt(append(dst, `,"inUse":`...), int64(rep.Rename.InUse), 10)
	dst = strconv.AppendInt(append(dst, `,"free":`...), int64(rep.Rename.Free), 10)
	dst = appendUint(dst, `},"fetchStallCycles":`, rep.FetchStalls)
	dst = appendUint(dst, `,"decodeStallCycles":`, rep.DecodeStalls)
	dst = appendUint(dst, `,"commitStallCycles":`, rep.CommitStalls)
	dst = jsonenc.Float(append(dst, `,"robMeanOccupancy":`...), rep.ROBOccupancy)
	dst = jsonenc.Float(append(dst, `,"windowMeanOccupancy":`...), rep.WindowOccup)
	dst = appendUint(dst, `,"windowFullStalls":`, rep.WindowStalls)
	dst = appendUint(dst, `,"renameFullStalls":`, rep.RenameStalls)
	return append(dst, '}'), nil
}

// unsupportedRate returns the error encoding/json meets first in the
// report, a NaN or infinite rate, or nil.
func (rep *Report) unsupportedRate() error {
	for _, f := range [...]float64{rep.IPC, rep.WallTimeSec, rep.FlopsPerSec} {
		if err := jsonenc.UnsupportedFloat(f); err != nil {
			return err
		}
	}
	for i := range rep.FUs {
		if err := jsonenc.UnsupportedFloat(rep.FUs[i].BusyPct); err != nil {
			return err
		}
	}
	for _, f := range [...]float64{rep.PredAccuracy, rep.CacheHitRate, rep.ROBOccupancy, rep.WindowOccup} {
		if err := jsonenc.UnsupportedFloat(f); err != nil {
			return err
		}
	}
	return nil
}

func (s *FUStat) appendJSON(dst []byte) []byte {
	dst = jsonenc.String(append(dst, `{"name":`...), s.Name)
	dst = jsonenc.String(append(dst, `,"class":`...), s.Class)
	dst = appendUint(dst, `,"busyCycles":`, s.BusyCycles)
	dst = jsonenc.Float(append(dst, `,"busyPct":`...), s.BusyPct)
	dst = appendUint(dst, `,"execCount":`, s.ExecCount)
	return append(dst, '}')
}

func appendUint(dst []byte, key string, v uint64) []byte {
	return strconv.AppendUint(append(dst, key...), v, 10)
}

// appendMix appends an instruction mix as encoding/json writes a map:
// null when nil, else its members in key order.
func appendMix(dst []byte, mix map[string]uint64) []byte {
	if mix == nil {
		return append(dst, "null"...)
	}
	var buf [16]string // more than there are instruction classes
	keys := buf[:0]
	for k := range mix {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(append(jsonenc.String(dst, k), ':'), mix[k], 10)
	}
	return append(dst, '}')
}

// appendCounters appends an all-unsigned counter block, the inverse of
// decodeCounters: vals[i] under keys[i], which need no escaping.
func appendCounters(dst []byte, keys []string, vals ...uint64) []byte {
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(append(append(dst, '"'), k...), '"', ':')
		dst = strconv.AppendUint(dst, vals[i], 10)
	}
	return append(dst, '}')
}

// DecodeJSON reads the report without reflection into a zero Report, as
// encoding/json would read it from the struct tags; r fails on what it
// cannot read that way (jsonenc.Reader). AppendJSON, above, writes what
// it reads.
func (rep *Report) DecodeJSON(r *jsonenc.Reader) {
	var seen uint64
	for more := r.Enter('{'); more; more = r.Next('}') {
		switch r.Key(reportKeys, &seen) {
		case "architecture":
			rep.Architecture = r.Intern(names())
		case "cycles":
			rep.Cycles = r.Uint()
		case "committedInstructions":
			rep.Committed = r.Uint()
		case "fetchedInstructions":
			rep.Fetched = r.Uint()
		case "squashedInstructions":
			rep.Squashed = r.Uint()
		case "ipc":
			rep.IPC = r.Float()
		case "wallTimeSec":
			rep.WallTimeSec = r.Float()
		case "flops":
			rep.Flops = r.Uint()
		case "flopsPerSec":
			rep.FlopsPerSec = r.Float()
		case "robFlushes":
			rep.ROBFlushes = r.Uint()
		case "haltReason":
			rep.HaltReason = r.String()
		case "exception":
			rep.ExceptionMsg = r.String()
		case "staticMix":
			rep.StaticMix = jsonenc.Map(r, names(), (*jsonenc.Reader).Uint)
		case "dynamicMix":
			rep.DynamicMix = jsonenc.Map(r, names(), (*jsonenc.Reader).Uint)
		case "functionalUnits":
			rep.FUs = jsonenc.Slice(r, (*FUStat).decodeJSON)
		case "lsu":
			rep.LSU.decodeJSON(r)
		case "predictor":
			decodePredictor(&rep.Predictor, r)
		case "predictorAccuracy":
			rep.PredAccuracy = r.Float()
		case "cache":
			decodeCache(&rep.Cache, r)
		case "cacheHitRate":
			rep.CacheHitRate = r.Float()
		case "memory":
			decodeMemory(&rep.Memory, r)
		case "rename":
			decodeRename(&rep.Rename, r)
		case "fetchStallCycles":
			rep.FetchStalls = r.Uint()
		case "decodeStallCycles":
			rep.DecodeStalls = r.Uint()
		case "commitStallCycles":
			rep.CommitStalls = r.Uint()
		case "robMeanOccupancy":
			rep.ROBOccupancy = r.Float()
		case "windowMeanOccupancy":
			rep.WindowOccup = r.Float()
		case "windowFullStalls":
			rep.WindowStalls = r.Uint()
		case "renameFullStalls":
			rep.RenameStalls = r.Uint()
		}
	}
}

var fuStatKeys = []string{"name", "class", "busyCycles", "busyPct", "execCount"}

func (s *FUStat) decodeJSON(r *jsonenc.Reader) {
	var seen uint64
	for more := r.Enter('{'); more; more = r.Next('}') {
		switch r.Key(fuStatKeys, &seen) {
		case "name":
			s.Name = r.Intern(names())
		case "class":
			s.Class = r.Intern(names())
		case "busyCycles":
			s.BusyCycles = r.Uint()
		case "busyPct":
			s.BusyPct = r.Float()
		case "execCount":
			s.ExecCount = r.Uint()
		}
	}
}

// The counter blocks below are all-unsigned objects: decodeCounters reads
// one, each key into the field the same position of fields points at.

var lsuKeys = []string{
	"loads", "stores", "forwards", "stallsUnknownAddr", "stallsPartialOverlap",
	"busBusyCycles", "loadBufferFullStalls", "storeBufferFullStalls",
}

func (s *LSUStat) decodeJSON(r *jsonenc.Reader) {
	decodeCounters(r, lsuKeys, &s.Loads, &s.Stores, &s.Forwards, &s.StallsUnknown, &s.StallsPartial,
		&s.BusBusyCycles, &s.LoadBufStalls, &s.StoreBufStalls)
}

var predictorKeys = []string{"predictions", "correct", "mispredicts", "btbHits", "btbMisses"}

func decodePredictor(s *predictor.Stats, r *jsonenc.Reader) {
	decodeCounters(r, predictorKeys, &s.Predictions, &s.Correct, &s.Mispredicts, &s.BTBHits, &s.BTBMisses)
}

var cacheKeys = []string{"accesses", "hits", "misses", "evictions", "writebacks"}

func decodeCache(s *cache.Stats, r *jsonenc.Reader) {
	decodeCounters(r, cacheKeys, &s.Accesses, &s.Hits, &s.Misses, &s.Evictions, &s.Writebacks)
}

var memoryKeys = []string{"reads", "writes", "bytesRead", "bytesWritten"}

func decodeMemory(s *memory.Stats, r *jsonenc.Reader) {
	decodeCounters(r, memoryKeys, &s.Reads, &s.Writes, &s.BytesRead, &s.BytesWritten)
}

func decodeCounters(r *jsonenc.Reader, keys []string, fields ...*uint64) {
	var seen uint64
	for more := r.Enter('{'); more; more = r.Next('}') {
		if k := r.Key(keys, &seen); k != "" {
			*fields[slices.Index(keys, k)] = r.Uint()
		}
	}
}

var renameKeys = []string{"allocations", "stallsEmpty", "inUse", "free"}

func decodeRename(s *rename.Stats, r *jsonenc.Reader) {
	var seen uint64
	for more := r.Enter('{'); more; more = r.Next('}') {
		switch r.Key(renameKeys, &seen) {
		case "allocations":
			s.Allocations = r.Uint()
		case "stallsEmpty":
			s.StallsEmpty = r.Uint()
		case "inUse":
			s.InUse = r.Int()
		case "free":
			s.Free = r.Int()
		}
	}
}
