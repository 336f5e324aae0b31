// Package costmodel estimates the chip area consumed by specific blocks
// based on their complexity, and the processor's energy and power, from an
// architecture description and a run's statistics — the paper's final
// future-work item (§V: "runtime statistics could be expanded to measure
// the chip area consumed by specific blocks based on their complexity or
// estimate the processor's power consumption").
//
// The model is educational, in the spirit of the simulator: first-order
// unit costs (kilo-gate-equivalents for area, picojoules per event for
// energy) with documented scaling rules, not a sign-off power model. The
// value for students is in the *relative* numbers: doubling the ROB or
// going 4-wide has a visible, explainable price.
//
// The constants below are teaching figures. They cite no source, and
// nothing validates them against silicon or a synthesis flow. What checks
// them is only their shape: the ordering tests here and in
// sim/extensions_test.go (a larger ROB, cache or width costs more; more
// work costs more energy) and Example_debugger's pinned cost table for
// the default core, which fails when a constant it uses moves.
package costmodel

import (
	"fmt"
	"sort"
	"strings"

	"riscvsim/internal/config"
	"riscvsim/internal/stats"
)

// Area unit: kGE (thousand gate equivalents). Energy unit: pJ per event.
// The constants are first-order teaching figures, meant for the
// comparative questions the paper poses ("reasonable manufacturing cost
// and power consumption", §I-B) and validated by nothing (see the package
// comment).
const (
	kgePerArchRegFile  = 12.0 // 2x32 regs, 64-bit containers
	kgePerRenameReg    = 0.35 // speculative register + tracking
	kgePerROBEntry     = 0.45 // payload + done/exception flags
	kgePerWindowEntry  = 0.9  // wakeup/select CAM entry
	kgePerLSQEntry     = 0.8  // address CAM + data
	kgePerFetchWidth   = 3.0  // fetch/decode slice per way
	kgeFXBase          = 5.0  // ALU
	kgeFXMul           = 12.0 // multiplier array
	kgeFXDiv           = 15.0 // iterative divider
	kgeFPBase          = 35.0 // FP add/mul datapath
	kgeFPDiv           = 20.0 // FP divide/sqrt
	kgeLSUnit          = 6.0  // AGU + port
	kgeBranchUnit      = 2.5
	kgePipelinedFactor = 1.35 // pipeline registers inside a unit
	kgePerCacheKB      = 9.0  // SRAM + sense amps per KiB of data
	kgePerCacheWay     = 1.2  // tag compare per way
	kgePerBTBEntry     = 0.02
	kgePerPHTEntry     = 0.004
	kgePerHistBit      = 0.05

	pjPerCommit    = 6.0 // rename/ROB/commit bookkeeping per instruction
	pjPerFXOp      = 4.0
	pjPerFPOp      = 22.0
	pjPerLSOp      = 8.0
	pjPerBranchOp  = 3.0
	pjPerCacheHit  = 10.0
	pjPerCacheMiss = 80.0
	pjPerMemAccess = 120.0
	pjPerFlush     = 40.0
	pjPerFetch     = 2.5
	// Leakage: µW per kGE; multiplied by wall time for static energy.
	leakageUWPerKGE = 1.8
)

// BlockArea is one row of the area breakdown.
type BlockArea struct {
	Block string  `json:"block"`
	KGE   float64 `json:"kGE"`
}

// EnergyItem is one row of the energy breakdown.
type EnergyItem struct {
	Source string  `json:"source"`
	NanoJ  float64 `json:"nanojoules"`
}

// Report is the cost estimate for one architecture and (optionally) one
// run.
type Report struct {
	Architecture string `json:"architecture"`

	// Area.
	Blocks   []BlockArea `json:"areaBlocks"`
	TotalKGE float64     `json:"totalKGE"`

	// Energy/power for the measured run (zero when no stats given).
	Energy        []EnergyItem `json:"energyBreakdown,omitempty"`
	DynamicNanoJ  float64      `json:"dynamicNanojoules"`
	LeakageNanoJ  float64      `json:"leakageNanojoules"`
	TotalNanoJ    float64      `json:"totalNanojoules"`
	AvgPowerMW    float64      `json:"averagePowerMilliwatts"`
	EnergyPerInst float64      `json:"picojoulesPerInstruction"`
}

// EstimateArea computes the per-block area breakdown for an architecture.
func EstimateArea(cfg *config.CPU) *Report {
	r := &Report{Architecture: cfg.Name}
	add := func(block string, kge float64) {
		r.Blocks = append(r.Blocks, BlockArea{Block: block, KGE: kge})
		r.TotalKGE += kge
	}

	add("register files (architectural)", kgePerArchRegFile)
	add("rename file", float64(cfg.RenameRegisters)*kgePerRenameReg)
	add("reorder buffer", float64(cfg.ROBSize)*kgePerROBEntry)
	add("issue windows", float64(cfg.FXWindow+cfg.FPWindow+cfg.LSWindow+cfg.BranchWindow)*kgePerWindowEntry)
	add("load/store buffers", float64(cfg.LoadBufferSize+cfg.StoreBufferSize)*kgePerLSQEntry)
	add("fetch/decode", float64(cfg.FetchWidth)*kgePerFetchWidth)

	var fuKGE float64
	for i := range cfg.Units {
		fuKGE += unitArea(&cfg.Units[i])
	}
	add("functional units", fuKGE)

	if cfg.Cache.Enabled {
		dataKB := float64(cfg.Cache.Lines*cfg.Cache.LineSize) / 1024
		add("L1 cache", dataKB*kgePerCacheKB+float64(cfg.Cache.Associativity)*kgePerCacheWay)
	}
	pred := float64(cfg.Predictor.BTBSize)*kgePerBTBEntry +
		float64(cfg.Predictor.PHTSize)*kgePerPHTEntry +
		float64(cfg.Predictor.HistoryBits)*kgePerHistBit
	add("branch predictor", pred)
	return r
}

// unitArea prices one functional unit by class and supported operations.
func unitArea(u *config.FUSpec) float64 {
	var kge float64
	switch u.Class {
	case "FX":
		kge = kgeFXBase
		if supportsAny(u, "mul", "mulh", "mulhu", "mulhsu") {
			kge += kgeFXMul
		}
		if supportsAny(u, "div", "divu", "rem", "remu") {
			kge += kgeFXDiv
		}
	case "FP":
		kge = kgeFPBase
		if supportsAny(u, "fdiv.s", "fsqrt.s", "fdiv.d", "fsqrt.d") {
			kge += kgeFPDiv
		}
	case "LS":
		kge = kgeLSUnit
	default:
		kge = kgeBranchUnit
	}
	if u.Pipelined {
		kge *= kgePipelinedFactor
	}
	return kge
}

func supportsAny(u *config.FUSpec, names ...string) bool {
	for _, n := range names {
		if u.Supports(n) {
			return true
		}
	}
	return false
}

// Estimate combines the area model with a run's statistics into energy and
// average power.
func Estimate(cfg *config.CPU, rep *stats.Report) *Report {
	r := EstimateArea(cfg)
	if rep == nil || rep.Cycles == 0 {
		return r
	}
	add := func(source string, nj float64) {
		if nj > 0 {
			r.Energy = append(r.Energy, EnergyItem{Source: source, NanoJ: nj})
			r.DynamicNanoJ += nj
		}
	}
	pj := func(events uint64, cost float64) float64 {
		return float64(events) * cost / 1000 // pJ -> nJ
	}

	add("instruction commit", pj(rep.Committed, pjPerCommit))
	add("instruction fetch", pj(rep.Fetched, pjPerFetch))
	var fx, fp, ls, br uint64
	for _, fu := range rep.FUs {
		switch fu.Class {
		case "FX":
			fx += fu.ExecCount
		case "FP":
			fp += fu.ExecCount
		case "LS":
			ls += fu.ExecCount
		default:
			br += fu.ExecCount
		}
	}
	// First-order simplification: integer multiplies/divides are charged
	// at the flat FX rate (no per-mnemonic execution counter exists); the
	// FP premium captures the expensive datapath instead.
	add("FX operations", pj(fx, pjPerFXOp))
	add("FP operations", pj(fp, pjPerFPOp))
	add("load/store address generation", pj(ls, pjPerLSOp))
	add("branch resolution", pj(br, pjPerBranchOp))
	add("cache hits", pj(rep.Cache.Hits, pjPerCacheHit))
	add("cache misses", pj(rep.Cache.Misses, pjPerCacheMiss))
	add("memory accesses", pj(rep.Memory.Reads+rep.Memory.Writes, pjPerMemAccess))
	add("pipeline flushes", pj(rep.ROBFlushes, pjPerFlush))

	// Leakage over the run's wall time: µW/kGE × kGE × s = µJ.
	r.LeakageNanoJ = leakageUWPerKGE * r.TotalKGE * rep.WallTimeSec * 1000
	r.TotalNanoJ = r.DynamicNanoJ + r.LeakageNanoJ
	if rep.WallTimeSec > 0 {
		// nJ / s = nW; to mW divide by 1e6.
		r.AvgPowerMW = r.TotalNanoJ / rep.WallTimeSec / 1e6
	}
	if rep.Committed > 0 {
		r.EnergyPerInst = r.TotalNanoJ * 1000 / float64(rep.Committed)
	}
	return r
}

// FormatText renders the cost report for the CLI/statistics window.
func (r *Report) FormatText() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Cost model — %s\n", r.Architecture)
	fmt.Fprintf(&sb, "\n── Chip area (educational kGE model) ─────────────────\n")
	blocks := append([]BlockArea(nil), r.Blocks...)
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].KGE > blocks[j].KGE })
	for _, b := range blocks {
		fmt.Fprintf(&sb, "  %-34s %9.1f kGE (%4.1f%%)\n", b.Block, b.KGE, 100*b.KGE/r.TotalKGE)
	}
	fmt.Fprintf(&sb, "  %-34s %9.1f kGE\n", "TOTAL", r.TotalKGE)
	if r.TotalNanoJ > 0 {
		fmt.Fprintf(&sb, "\n── Energy for this run ────────────────────────────────\n")
		items := append([]EnergyItem(nil), r.Energy...)
		sort.Slice(items, func(i, j int) bool { return items[i].NanoJ > items[j].NanoJ })
		for _, e := range items {
			fmt.Fprintf(&sb, "  %-34s %12.2f nJ\n", e.Source, e.NanoJ)
		}
		fmt.Fprintf(&sb, "  %-34s %12.2f nJ\n", "leakage", r.LeakageNanoJ)
		fmt.Fprintf(&sb, "  %-34s %12.2f nJ\n", "TOTAL", r.TotalNanoJ)
		fmt.Fprintf(&sb, "  %-34s %12.2f mW\n", "average power", r.AvgPowerMW)
		fmt.Fprintf(&sb, "  %-34s %12.2f pJ/instr\n", "energy per instruction", r.EnergyPerInst)
	}
	return sb.String()
}
