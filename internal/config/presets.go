package config

import (
	"fmt"

	"riscvsim/internal/cache"
	"riscvsim/internal/memory"
	"riscvsim/internal/predictor"
)

// Default returns the standard 2-wide superscalar preset the simulator
// starts with: two FX units, one FP, one LS, one branch unit, a 16 KiB
// 4-way L1 and a two-bit gshare predictor.
func Default() *CPU {
	return &CPU{
		Name:          "default-2wide",
		CoreClockHz:   100e6,
		MemoryClockHz: 50e6,

		ROBSize:       32,
		FetchWidth:    2,
		CommitWidth:   2,
		FlushPenalty:  3,
		JumpsPerCycle: 1,

		FXWindow:     8,
		FPWindow:     8,
		LSWindow:     8,
		BranchWindow: 4,

		LoadBufferSize:  8,
		StoreBufferSize: 8,
		RenameRegisters: 48,

		Units: []FUSpec{
			{Name: "FX0", Class: "FX", Latency: 1, Ops: fxFastOps()},
			{Name: "FX1", Class: "FX", Latency: 1, Ops: fxFullOps()},
			{Name: "FP0", Class: "FP", Latency: 3, Ops: fpOps()},
			{Name: "LS0", Class: "LS", Latency: 1},
			{Name: "BR0", Class: "Branch", Latency: 1},
		},

		Cache:     cache.DefaultConfig(),
		Memory:    memory.DefaultConfig(),
		Predictor: predictor.DefaultConfig(),
	}
}

// Scalar returns a single-issue in-order-ish preset: 1-wide fetch/commit,
// one unit of each kind, tiny buffers. It plays the role of the simple
// scalar cores the paper contrasts with (Venus, Vulcan support only
// scalar pipelines, §I-A).
func Scalar() *CPU {
	c := Default()
	c.Name = "scalar"
	c.ROBSize = 4
	c.FetchWidth = 1
	c.CommitWidth = 1
	c.FXWindow = 2
	c.FPWindow = 2
	c.LSWindow = 2
	c.BranchWindow = 2
	c.LoadBufferSize = 2
	c.StoreBufferSize = 2
	c.RenameRegisters = 8
	c.Units = []FUSpec{
		{Name: "FX0", Class: "FX", Latency: 1, Ops: fxFullOps()},
		{Name: "FP0", Class: "FP", Latency: 3, Ops: fpOps()},
		{Name: "LS0", Class: "LS", Latency: 1},
		{Name: "BR0", Class: "Branch", Latency: 1},
	}
	c.Predictor.Kind = predictor.OneBit
	c.Predictor.DefaultState = 0
	return c
}

// Wide4 returns an aggressive 4-wide preset with duplicated units and
// larger windows, for the width-sweep experiments.
func Wide4() *CPU {
	c := Default()
	c.Name = "wide-4"
	c.ROBSize = 64
	c.FetchWidth = 4
	c.CommitWidth = 4
	c.JumpsPerCycle = 2
	c.FXWindow = 16
	c.FPWindow = 16
	c.LSWindow = 16
	c.BranchWindow = 8
	c.LoadBufferSize = 16
	c.StoreBufferSize = 16
	c.RenameRegisters = 96
	c.Units = []FUSpec{
		{Name: "FX0", Class: "FX", Latency: 1, Ops: fxFastOps()},
		{Name: "FX1", Class: "FX", Latency: 1, Ops: fxFastOps()},
		{Name: "FX2", Class: "FX", Latency: 1, Ops: fxFullOps()},
		{Name: "FX3", Class: "FX", Latency: 1, Ops: fxFullOps()},
		{Name: "FP0", Class: "FP", Latency: 3, Ops: fpOps()},
		{Name: "FP1", Class: "FP", Latency: 3, Ops: fpOps()},
		{Name: "LS0", Class: "LS", Latency: 1},
		{Name: "LS1", Class: "LS", Latency: 1},
		{Name: "BR0", Class: "Branch", Latency: 1},
		{Name: "BR1", Class: "Branch", Latency: 1},
	}
	return c
}

// WidthPreset returns a preset with the given fetch/commit width (1, 2, 4
// or 8), scaling buffers and unit counts accordingly; used by the
// width-sweep ablation (bench_test.go A1).
func WidthPreset(width int) (*CPU, error) {
	switch width {
	case 1:
		return Scalar(), nil
	case 2:
		return Default(), nil
	case 4:
		return Wide4(), nil
	case 8:
		c := Wide4()
		c.Name = "wide-8"
		c.ROBSize = 128
		c.FetchWidth = 8
		c.CommitWidth = 8
		c.JumpsPerCycle = 3
		c.FXWindow = 32
		c.FPWindow = 32
		c.LSWindow = 32
		c.BranchWindow = 16
		c.LoadBufferSize = 32
		c.StoreBufferSize = 32
		c.RenameRegisters = 192
		for i := 0; i < 4; i++ {
			c.Units = append(c.Units,
				FUSpec{Name: fmt.Sprintf("FX%d", 4+i), Class: "FX", Latency: 1, Ops: fxFastOps()})
		}
		c.Units = append(c.Units,
			FUSpec{Name: "LS2", Class: "LS", Latency: 1},
			FUSpec{Name: "LS3", Class: "LS", Latency: 1},
		)
		return c, nil
	default:
		return nil, fmt.Errorf("config: no preset for width %d (have 1, 2, 4, 8)", width)
	}
}

// Presets returns all named presets, as the GUI's architecture switcher
// offers them.
func Presets() map[string]*CPU {
	m := make(map[string]*CPU, len(presets))
	for name, build := range presets {
		m[name] = build()
	}
	return m
}

var presets = map[string]func() *CPU{
	"default": Default,
	"scalar":  Scalar,
	"wide4":   Wide4,
}

// Preset returns the named preset, building only that one.
func Preset(name string) (*CPU, bool) {
	build, ok := presets[name]
	if !ok {
		return nil, false
	}
	return build(), true
}

// fxFastOps lists the single-cycle integer operations (no multiply or
// divide): the cheap FX unit variant.
func fxFastOps() map[string]int {
	ops := map[string]int{}
	for _, n := range []string{
		"lui", "auipc", "addi", "slti", "sltiu", "xori", "ori", "andi",
		"slli", "srli", "srai", "add", "sub", "sll", "slt", "sltu",
		"xor", "srl", "sra", "or", "and", "fence", "ecall", "ebreak",
	} {
		ops[n] = 1
	}
	return ops
}

// fxFullOps adds the M extension with realistic latencies: 3-cycle
// multiply, 16-cycle divide.
func fxFullOps() map[string]int {
	ops := fxFastOps()
	for _, n := range []string{"mul", "mulh", "mulhsu", "mulhu"} {
		ops[n] = 3
	}
	for _, n := range []string{"div", "divu", "rem", "remu"} {
		ops[n] = 16
	}
	return ops
}

// fpOps gives the FP unit per-operation latencies: adds at 3 cycles,
// multiplies 4, fused 5, divide/sqrt 12, moves/compares 1-2.
func fpOps() map[string]int {
	ops := map[string]int{}
	set := func(l int, names ...string) {
		for _, n := range names {
			ops[n] = l
		}
	}
	set(3, "fadd.s", "fsub.s", "fmin.s", "fmax.s", "fadd.d", "fsub.d", "fmin.d", "fmax.d")
	set(4, "fmul.s", "fmul.d")
	set(5, "fmadd.s", "fmsub.s", "fnmadd.s", "fnmsub.s")
	set(12, "fdiv.s", "fsqrt.s", "fdiv.d", "fsqrt.d")
	set(1, "fsgnj.s", "fsgnjn.s", "fsgnjx.s", "fmv.x.w", "fmv.w.x",
		"fclass.s", "fsgnj.d", "fsgnjn.d", "fsgnjx.d", "fclass.d")
	set(2, "fcvt.w.s", "fcvt.wu.s", "fcvt.s.w", "fcvt.s.wu",
		"feq.s", "flt.s", "fle.s", "fcvt.d.s", "fcvt.s.d",
		"fcvt.w.d", "fcvt.wu.d", "fcvt.d.w", "fcvt.d.wu",
		"feq.d", "flt.d", "fle.d")
	return ops
}
