package main

import (
	"fmt"
	"time"

	"riscvsim/internal/asm"
	"riscvsim/internal/compiler"
	"riscvsim/internal/core"
	"riscvsim/internal/isa"
	"riscvsim/internal/memory"
	"riscvsim/sim"
)

// buildCore re-enacts the constructor sequence of sim.NewFromAsm /
// sim.NewFromC through each package's public constructor, one child span
// per layer. The facade cannot be timed from inside without editing it
// (in-program phase timers are a later issue), so the traced replay of
// the simulate-shaped workloads builds its machines this way and runs
// the returned core directly; the replay's checker holds the result to
// the same reference as the facade-built machines of the untraced run.
func buildCore(tr *tracer, cfg *sim.Config, code string, isC bool, opt int, entry string) (*core.Simulation, int, error) {
	tr.begin("build")
	defer tr.end()
	if isC {
		tr.begin("compiler.Compile")
		res, err := compiler.Compile(code, opt)
		tr.end()
		if err != nil {
			return nil, 0, err
		}
		code = res.Assembly
	}
	tr.begin("isa.RV32IMF")
	set := isa.RV32IMF()
	tr.end()
	tr.begin("isa.NewRegisterFile")
	regs := isa.NewRegisterFile()
	tr.end()
	tr.begin("memory.New")
	mem := memory.New(cfg.Memory)
	tr.end()
	tr.begin("asm.Assemble")
	prog, err := asm.Assemble(code, set, regs, mem)
	tr.end()
	if err != nil {
		return nil, 0, err
	}
	e, err := prog.EntryPoint(entry)
	if err != nil {
		return nil, 0, err
	}
	tr.begin("core.New")
	s, err := core.New(cfg, set, regs, prog, mem, e)
	tr.end()
	if err != nil {
		return nil, 0, err
	}
	return s, len(prog.Instructions), nil
}

// replayCounts are the exact work counts a replay accumulates. They
// depend only on the seed and the request list, so they must repeat
// bit-for-bit across runs of one commit.
type replayCounts struct {
	outcome   // attempted counts the replayed ops
	instrs    int
	cycles    uint64
	committed uint64
	reqBytes  int
	respBytes int
	ckptBytes int
	snapshots int
}

// perOpLayers maps the per-layer metrics that report mean self time per
// replayed operation (µs) onto the spans they sum. Together with the
// per-request glue they add up to the replay's in-process time per op.
var perOpLayers = map[string][]string{
	"isa.build_us":         {"isa.RV32IMF", "isa.NewRegisterFile"},
	"memory.new_us":        {"memory.New"},
	"asm.assemble_us":      {"asm.Assemble"},
	"compiler.compile_us":  {"compiler.Compile"},
	"core.new_us":          {"core.New"},
	"core.run_us":          {"core.Run", "sim.StepN", "sim.StepN(1)", "sim.GotoCycle(back)"},
	"stats.report_us":      {"stats.Report"},
	"api.decode_us":        {"api.Decode"},
	"api.encode_us":        {"api.Encode"},
	"sim.state_us":         {"sim.State"},
	"client.gen_us_per_op": {"client.Encode", "client.Decode"},
}

// perCallLayers maps the per-layer metrics that report mean time per call
// (µs) onto their span: entry points only some requests reach, where the
// cost of one call is the useful figure.
var perCallLayers = map[string]string{
	"sim.step1_us":      "sim.StepN(1)",
	"sim.stepback_us":   "sim.GotoCycle(back)",
	"sim.checkpoint_us": "sim.Checkpoint",
	"sim.restore_us":    "sim.Restore",
	"store.put_us":      "store.Put",
	"store.get_us":      "store.Get",
	"store.dir_put_us":  "store.Dir.Put",
	"store.dir_get_us":  "store.Dir.Get",
}

// spanLayers turns a replay's spans and counts into per-layer metrics.
func spanLayers(spans []span, c *replayCounts) map[string]float64 {
	by := spanTotals(spans)
	ops := float64(max(c.attempted, 1))
	out := map[string]float64{
		"asm.instrs":     float64(c.instrs),
		"core.cycles":    float64(c.cycles),
		"core.committed": float64(c.committed),
		"api.req_bytes":  float64(c.reqBytes),
		"api.resp_bytes": float64(c.respBytes),
		"sim.ckpt_bytes": float64(c.ckptBytes),
		"sim.snapshots":  float64(c.snapshots),
	}
	for metric, names := range perOpLayers {
		var sum time.Duration
		for _, n := range names {
			sum += by[n].self
		}
		out[metric] = float64(sum) / 1e3 / ops
	}
	for metric, name := range perCallLayers {
		out[metric] = 0
		if t := by[name]; t.calls > 0 {
			out[metric] = float64(t.self) / 1e3 / float64(t.calls)
		}
	}
	// server.build_us is the whole build per op, children included: the
	// facade call where the replay needs a sim.Machine, the re-enacted
	// constructor sequence elsewhere.
	out["server.build_us"] = float64(by["server.BuildMachine"].total+by["build"].total) / 1e3 / ops
	out["core.ns_per_cycle"] = 0
	if c.cycles > 0 {
		out["core.ns_per_cycle"] = out["core.run_us"] * 1e3 * ops / float64(c.cycles)
	}
	return out
}

func wantEqual(what string, got, want any) error {
	if got != want {
		return fmt.Errorf("%s = %v, reference says %v", what, got, want)
	}
	return nil
}
