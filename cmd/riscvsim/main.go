// Command riscvsim is the simulator's command-line interface (paper §II-E):
// it executes large programs written in C or assembly and collects runtime
// statistics. The two mandatory inputs are the source file and the
// architecture description in JSON; optional flags select the entry point,
// memory fills, dump ranges, verbosity and output format (text or JSON).
//
// By default the CLI runs the simulation in-process. With --host/--port it
// connects to a simulation server instead, exactly like the paper's CLI.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"riscvsim/internal/api"
	"riscvsim/internal/client"
	"riscvsim/internal/fuzz"
	"riscvsim/internal/server"
	"riscvsim/internal/trace"
	"riscvsim/internal/workload"
	"riscvsim/sim"
)

// traceFlag implements -trace[=stages]: a bare -trace turns tracing on
// for every stage; -trace=fetch,commit keeps only the named stages
// (docs/trace.md has the grammar).
type traceFlag struct {
	on     bool
	stages string
}

// String implements flag.Value.
func (f *traceFlag) String() string {
	if !f.on {
		return ""
	}
	if f.stages == "" {
		return "all"
	}
	return f.stages
}

// Set implements flag.Value.
func (f *traceFlag) Set(v string) error {
	switch v {
	case "false":
		f.on, f.stages = false, ""
	case "", "true", "all":
		f.on, f.stages = true, ""
	default:
		if _, err := trace.ParseStages(v); err != nil {
			return err
		}
		f.on, f.stages = true, v
	}
	return nil
}

// IsBoolFlag lets -trace appear without a value.
func (f *traceFlag) IsBoolFlag() bool { return true }

// suiteFlag implements -suite[=filter]: a bare -suite runs the whole
// embedded workload corpus; -suite=branch-heavy or -suite=matmul,bitmix
// selects a subset by tag or name substring (docs/workloads.md).
type suiteFlag struct {
	on     bool
	filter string
}

// String implements flag.Value.
func (f *suiteFlag) String() string {
	if !f.on {
		return ""
	}
	if f.filter == "" {
		return "all"
	}
	return f.filter
}

// Set implements flag.Value.
func (f *suiteFlag) Set(v string) error {
	switch v {
	case "false":
		f.on, f.filter = false, ""
	case "", "true", "all":
		f.on, f.filter = true, ""
	default:
		if _, err := workload.Match(v); err != nil {
			return err
		}
		f.on, f.filter = true, v
	}
	return nil
}

// IsBoolFlag lets -suite appear without a value.
func (f *suiteFlag) IsBoolFlag() bool { return true }

func main() {
	var (
		archPath = flag.String("arch", "", "architecture description JSON file (default: built-in 2-wide preset)")
		preset   = flag.String("preset", "", "named preset: default, scalar, wide4")
		entry    = flag.String("entry", "", "entry label (default: first instruction, or main for C)")
		language = flag.String("lang", "", "source language: asm or c (default: by file extension)")
		optimize = flag.Int("O", 2, "C optimization level 0..3")
		steps    = flag.Uint64("steps", 0, "cycle limit (0 = run to completion)")
		fastFwd  = flag.Bool("fast-forward", false, "functional fast-forward mode: architectural state only, no pipeline timing (1 instruction = 1 cycle)")
		parallel = flag.Int("parallel", 0, "time-parallel detailed simulation on K cores (>= 2; requires a terminating program; final state bit-exact, timing stitched within the warm-up bound — docs/parallel.md)")
		warmup   = flag.Uint64("warmup", 0, "per-interval detailed warm-up in committed instructions whose metrics are discarded (0 = default; with -parallel)")
		format   = flag.String("format", "text", "output format: text or json")
		verbose  = flag.Int("v", 1, "verbosity: 0 stats only, 1 +summary, 2 +debug log, 3 +state")
		dump     = flag.String("dump", "", "memory dump range after the run: label or addr:len")
		cost     = flag.Bool("cost", false, "print the chip-area and power estimate after the run")
		memFill  = flag.String("fill", "", "memory fills label=v1,v2,... (semicolon separated)")
		ckptOut  = flag.String("checkpoint", "", "write a machine checkpoint to this file after the run (in-process only)")
		ckptIn   = flag.String("restore", "", "resume from a checkpoint file instead of building from source")
		host     = flag.String("host", "", "server host (empty = in-process simulation)")
		port     = flag.Int("port", 8042, "server port")
		gzipOn   = flag.Bool("gzip", true, "use gzip when talking to a server")

		tracePC    = flag.String("trace-pc", "", "trace PC-range filter lo:hi (inclusive code indices)")
		traceLimit = flag.Int("trace-limit", 0, "trace event bound (default 4096, max 65536)")

		fuzzOn   = flag.Bool("fuzz", false, "run a co-simulation fuzzing campaign instead of a program (docs/fuzzing.md)")
		fuzzN    = flag.Int("fuzz-n", 1000, "fuzz: number of generated programs")
		fuzzSeed = flag.Int64("fuzz-seed", 1, "fuzz: campaign base seed (program i uses seed+i; replay a failure with -fuzz-n=1 -fuzz-seed=<its seed>)")
		fuzzOut  = flag.String("fuzz-out", "", "fuzz: directory for shrunk reproducer files (empty = report only)")
	)
	var traceOn traceFlag
	flag.Var(&traceOn, "trace", "print a pipeline diagram; optionally =stage,... (fetch, decode, rename, dispatch, issue, execute, writeback, commit, squash)")
	var suiteOn suiteFlag
	flag.Var(&suiteOn, "suite", "run the embedded workload corpus instead of a program; optionally =filter (tags or name substrings, comma-separated)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: riscvsim [flags] program.{s,c}\n       riscvsim [flags] -restore state.ckpt\n       riscvsim [flags] -suite[=filter]\n       riscvsim [flags] -fuzz [-fuzz-n=N] [-fuzz-seed=S]\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	// A fuzzing campaign replaces the program argument: generate, verify
	// in lockstep, shrink, and exit non-zero on any divergence.
	if *fuzzOn {
		if flag.NArg() != 0 || *ckptIn != "" || *ckptOut != "" || suiteOn.on || *host != "" {
			flag.Usage()
			os.Exit(2)
		}
		runFuzz(*fuzzN, *fuzzSeed, *fuzzOut, *preset, *archPath)
		return
	}

	// The suite replaces the program argument: run the corpus and exit.
	if suiteOn.on {
		if flag.NArg() != 0 || *ckptIn != "" || *ckptOut != "" {
			flag.Usage()
			os.Exit(2)
		}
		runSuite(&suiteOn, *preset, *archPath, *host, *port, *gzipOn, *format)
		return
	}
	// A checkpoint to resume from replaces the program argument.
	if (*ckptIn == "" && flag.NArg() != 1) || (*ckptIn != "" && flag.NArg() != 0) {
		flag.Usage()
		os.Exit(2)
	}

	var src []byte
	lang := *language
	if *ckptIn == "" {
		srcPath := flag.Arg(0)
		var err error
		src, err = os.ReadFile(srcPath)
		if err != nil {
			fatal("reading program: %v", err)
		}
		if lang == "" {
			if strings.HasSuffix(srcPath, ".c") {
				lang = "c"
			} else {
				lang = "asm"
			}
		}
	}

	fills, err := parseFills(*memFill)
	if err != nil {
		fatal("%v", err)
	}

	req := &api.SimulateRequest{
		Code:         string(src),
		Language:     lang,
		Optimize:     *optimize,
		Entry:        *entry,
		Preset:       *preset,
		Steps:        *steps,
		MemFills:     fills,
		IncludeState: *verbose >= 3,
		IncludeLog:   *verbose >= 2,
		FastForward:  *fastFwd,
		Parallelism:  *parallel,
		WarmupCycles: *warmup,
	}
	// A trace filter flag implies -trace itself.
	if *tracePC != "" || *traceLimit != 0 {
		traceOn.on = true
	}
	if traceOn.on {
		req.Trace = &api.TraceOptions{Stages: traceOn.stages, PCRange: *tracePC, Limit: *traceLimit}
	}
	if *ckptIn != "" {
		data, err := os.ReadFile(*ckptIn)
		if err != nil {
			fatal("reading checkpoint: %v", err)
		}
		req.Checkpoint = data
	}
	if *archPath != "" {
		arch, err := os.ReadFile(*archPath)
		if err != nil {
			fatal("reading architecture: %v", err)
		}
		raw := json.RawMessage(arch)
		req.Config = &raw
	}

	// One in-process path: server.Simulate runs the request with exactly
	// /api/v1/simulate's semantics and hands back the machine the run left
	// behind, which -checkpoint and -dump read.
	var resp *api.SimulateResponse
	var m *sim.Machine
	if *host != "" {
		if *ckptOut != "" {
			fatal("-checkpoint needs the in-process machine; omit -host (servers expose POST /api/v1/session/checkpoint instead)")
		}
		if resp, err = client.New(*host, *port, *gzipOn).Simulate(req); err != nil {
			fatal("%v", err)
		}
	} else {
		var aerr *api.Error
		if m, resp, aerr = server.Simulate(req); aerr != nil {
			fatal("[%s] %s", aerr.Code, aerr.Message)
		}
	}
	if *ckptOut != "" {
		if err := writeCheckpoint(m, *ckptOut); err != nil {
			fatal("%v", err)
		}
	}

	switch *format {
	case "json":
		out, err := json.MarshalIndent(resp, "", "  ")
		if err != nil {
			fatal("encoding output: %v", err)
		}
		fmt.Println(string(out))
	default:
		if *verbose >= 1 {
			fmt.Printf("halted=%v (%s) after %d cycles\n", resp.Halted, resp.HaltReason, resp.Cycles)
			if p := resp.Parallel; p != nil {
				fmt.Printf("time-parallel: %d workers, %d healed intervals\n", p.Workers, p.Healed)
			}
		}
		fmt.Println(resp.Stats.FormatText())
		if *verbose >= 2 {
			for _, e := range resp.Log {
				fmt.Printf("[cycle %6d] %s\n", e.Cycle, e.Msg)
			}
		}
		if resp.Trace != nil {
			fmt.Println()
			fmt.Printf("Pipeline trace: %d events collected (%d matched, %d dropped by the bound)\n",
				len(resp.Trace.Events), resp.Trace.Total, resp.Trace.Dropped)
			fmt.Print(trace.Diagram(trace.Lifetimes(resp.Trace.Events), 0))
		}
	}

	if *dump != "" && m != nil {
		// Dumps need the in-process machine.
		text, err := formatDump(m, *dump)
		if err != nil {
			fatal("dump: %v", err)
		}
		fmt.Print(text)
	}

	if *cost {
		cfg := sim.DefaultConfig()
		if *preset != "" {
			if p, ok := sim.Preset(*preset); ok {
				cfg = p
			}
		}
		if req.Config != nil {
			if c, err := sim.ImportConfig(*req.Config); err == nil {
				cfg = c
			}
		}
		fmt.Println()
		fmt.Println(sim.EstimateCostFor(cfg, resp.Stats).FormatText())
	}
}

// runFuzz drives a co-simulation fuzzing campaign: fuzz.Run generates N
// programs from the base seed, runs each in lockstep across both
// semantic engines on the selected architecture, and shrinks any
// divergent one. Failure reports (including the exact replay command
// line) stream to stdout as they are found; the exit status is the gate.
func runFuzz(n int, seed int64, outDir, preset, archPath string) {
	cfg := sim.DefaultConfig()
	if preset != "" {
		p, ok := sim.Preset(preset)
		if !ok {
			fatal("unknown preset %q", preset)
		}
		cfg = p
	}
	if archPath != "" {
		arch, err := os.ReadFile(archPath)
		if err != nil {
			fatal("reading architecture: %v", err)
		}
		c, err := sim.ImportConfig(arch)
		if err != nil {
			fatal("architecture: %v", err)
		}
		cfg = c
	}
	fmt.Printf("fuzz: %d programs, base seed %d, architecture %s\n", n, seed, cfg.Name)
	failures, err := fuzz.Run(fuzz.Options{
		N: n, Seed: seed, Config: cfg, OutDir: outDir, Log: os.Stdout,
	})
	if err != nil {
		fatal("%v", err)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
}

// runSuite executes the embedded workload corpus — in-process through a
// loopback client, or against -host — and prints the per-workload metrics
// table (or the JSON report with -format json).
func runSuite(sf *suiteFlag, preset, archPath, host string, port int, gz bool, format string) {
	req := &api.SuiteRequest{Preset: preset, Filter: sf.filter}
	if archPath != "" {
		arch, err := os.ReadFile(archPath)
		if err != nil {
			fatal("reading architecture: %v", err)
		}
		raw := json.RawMessage(arch)
		req.Config = &raw
	}
	var c *client.Client
	if host != "" {
		c = client.New(host, port, gz)
	} else {
		var closeFn func()
		c, closeFn = client.Local(server.DefaultOptions())
		defer closeFn()
	}
	resp, err := c.RunSuite(req)
	if err != nil {
		fatal("%v", err)
	}
	if format == "json" {
		out, err := json.MarshalIndent(resp, "", "  ")
		if err != nil {
			fatal("encoding output: %v", err)
		}
		fmt.Println(string(out))
		return
	}
	fmt.Print(resp.Table())
	fmt.Printf("\n%d workloads on %d workers in %.1f ms\n",
		len(resp.Workloads), resp.Workers, float64(resp.WallNanos)/1e6)
}

// writeCheckpoint saves the machine state to path — the warm-prefix
// producer for forked sweeps (restore it with -restore,
// POST /api/v1/session/restore, or as a /api/v1/batch base checkpoint).
func writeCheckpoint(m *sim.Machine, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating checkpoint file: %w", err)
	}
	if err := m.Checkpoint(f); err != nil {
		f.Close()
		return fmt.Errorf("writing checkpoint: %w", err)
	}
	return f.Close()
}

func parseFills(spec string) ([]api.MemFill, error) {
	if spec == "" {
		return nil, nil
	}
	var fills []api.MemFill
	for _, part := range strings.Split(spec, ";") {
		eq := strings.IndexByte(part, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("bad fill %q (want label=v1,v2,...)", part)
		}
		f := api.MemFill{Label: part[:eq]}
		for _, vs := range strings.Split(part[eq+1:], ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(vs), 0, 64)
			if err != nil {
				return nil, fmt.Errorf("bad fill value %q: %v", vs, err)
			}
			f.Values = append(f.Values, v)
		}
		fills = append(fills, f)
	}
	return fills, nil
}

// formatDump renders a memory range of the machine the run left behind:
// a label's allocation, or addr:len.
func formatDump(m *sim.Machine, spec string) (string, error) {
	addr, length := 0, 64
	if i := strings.IndexByte(spec, ':'); i > 0 {
		a, err1 := strconv.Atoi(spec[:i])
		l, err2 := strconv.Atoi(spec[i+1:])
		if err1 != nil || err2 != nil {
			return "", fmt.Errorf("bad dump range %q", spec)
		}
		addr, length = a, l
	} else {
		a, size, ok := m.LookupLabel(spec)
		if !ok {
			return "", fmt.Errorf("no allocation labelled %q", spec)
		}
		addr, length = a, size
	}
	dump, err := m.HexDump(addr, length)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("\nMemory dump %s:\n%s", spec, dump), nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "riscvsim: "+format+"\n", args...)
	os.Exit(1)
}
