// Runnable tours of the public API (riscvsim/sim), one per program of the
// paper's §IV plus the studies it motivates. Each example's output is
// pinned, so `go test .` checks them:
//
//	go test -run '^Example' -v .
package riscvsim

import (
	"fmt"

	"riscvsim/internal/cache"
	"riscvsim/sim"
)

// sumLoopAsm sums the integers 1..100 into t0.
const sumLoopAsm = `
# Sum the integers 1..100 into t0.
main:
  li t0, 0          # sum
  li t1, 1          # i
  li t2, 101        # limit
loop:
  add t0, t0, t1
  addi t1, t1, 1
  bne t1, t2, loop
  mv a0, t0         # result in a0
  ret
`

// Example_quickstart assembles a small program, runs it to completion on
// the default 2-wide superscalar core and prints the runtime statistics:
// the 30-second tour of the public API.
func Example_quickstart() {
	m, err := sim.NewFromAsm(sim.DefaultConfig(), sumLoopAsm, "main")
	if err != nil {
		panic(err)
	}

	m.Run(1_000_000)

	result, err := m.IntReg("a0")
	if err != nil {
		panic(err)
	}
	fmt.Printf("sum(1..100) = %d (expected 5050)\n\n", result)
	fmt.Println(m.Report().FormatText())
	// Output:
	// sum(1..100) = 5050 (expected 5050)
	//
	// Runtime statistics — default-2wide
	//
	// ── Execution ─────────────────────────────────────────────────
	//   total executed cycles              211
	//   committed instructions             305
	//   fetched instructions               308
	//   squashed instructions              3
	//   IPC                                1.445
	//   wall time [s]                      2.11e-06
	//   FLOPs                              0
	//   FLOP/s                             0
	//   reorder buffer flushes             1
	//   halt reason                        pipeline empty
	//
	// ── Instruction mix (static / dynamic) ────────────────────────
	//   kArithmetic                             6 ( 75.0%)  /       204 ( 66.9%)
	//   kJumpbranch                             2 ( 25.0%)  /       101 ( 33.1%)
	//
	// ── Functional units ──────────────────────────────────────────
	//   FX0 (FX)                           busy      103 cycles ( 48.8%),      103 ops
	//   FX1 (FX)                           busy      101 cycles ( 47.9%),      101 ops
	//   FP0 (FP)                           busy        0 cycles (  0.0%),        0 ops
	//   LS0 (LS)                           busy        0 cycles (  0.0%),        0 ops
	//   BR0 (Branch)                       busy      101 cycles ( 47.9%),      101 ops
	//
	// ── Branch prediction ─────────────────────────────────────────
	//   predictions                        101
	//   correct                            100
	//   mispredictions                     1
	//   accuracy                           99.01%
	//   BTB hits / misses                  98 / 4
	//
	// ── L1 cache ──────────────────────────────────────────────────
	//   accesses                           0
	//   hits / misses                      0 / 0
	//   hit rate                           0.00%
	//   evictions / writebacks             0 / 0
	//   bytes written to memory            0
	//
	// ── Memory & pipeline ─────────────────────────────────────────
	//   memory reads / writes              0 / 0
	//   loads / stores executed            0 / 0
	//   store-to-load forwards             0
	//   disambiguation stalls              0
	//   fetch stall cycles                 5
	//   rename-file stalls                 0
	//   window-full stalls                 0
	//   ROB mean occupancy                 4.36
	//   rename registers in use            0
}

// Example_quicksort is the paper's flagship complex program (§IV), written
// in C, compiled by the built-in compiler at every optimization level and
// run on the default core: the C workflow end to end, and how the
// optimization level changes cycle counts.
func Example_quicksort() {
	fmt.Println("quicksort in C, compiled by the built-in compiler:")
	for opt := 0; opt <= 3; opt++ {
		m, err := sim.NewFromC(sim.DefaultConfig(), quicksortC, opt)
		if err != nil {
			panic(fmt.Sprintf("-O%d: %v", opt, err))
		}
		m.Run(5_000_000)
		if exc := m.Exception(); exc != nil {
			panic(fmt.Sprintf("-O%d: exception: %v", opt, exc))
		}
		r := m.Report()

		// Read the sorted array back out of simulated memory.
		addr, size, _ := m.LookupLabel("arr")
		raw, _ := m.ReadMemory(addr, size)
		sorted := make([]int32, size/4)
		for i := range sorted {
			sorted[i] = int32(uint32(raw[4*i]) | uint32(raw[4*i+1])<<8 |
				uint32(raw[4*i+2])<<16 | uint32(raw[4*i+3])<<24)
		}
		fmt.Printf("  -O%d: %7d cycles, IPC %.3f, %4d flushes -> %v\n",
			opt, r.Cycles, r.IPC, r.ROBFlushes, sorted)
	}
	// Output:
	// quicksort in C, compiled by the built-in compiler:
	//   -O0:    3242 cycles, IPC 1.122,   58 flushes -> [-50 -7 -3 0 1 2 4 4 5 9 12 100]
	//   -O1:    2328 cycles, IPC 1.538,   59 flushes -> [-50 -7 -3 0 1 2 4 4 5 9 12 100]
	//   -O2:    2211 cycles, IPC 1.524,   59 flushes -> [-50 -7 -3 0 1 2 4 4 5 9 12 100]
	//   -O3:    2211 cycles, IPC 1.524,   59 flushes -> [-50 -7 -3 0 1 2 4 4 5 9 12 100]
}

// linkedListAsm builds a 5-node list, reverses it in place and sums it
// into a0.
const linkedListAsm = `
main:
  # Build a 5-node list in the arena: values 1..5.
  la t0, arena
  li t1, 0
  li t2, 5
build:
  slli t3, t1, 3
  add t3, t0, t3
  addi t4, t1, 1
  sw t4, 0(t3)         # node.value
  addi t5, t1, 1
  beq t5, t2, last
  slli t5, t5, 3
  add t5, t0, t5
  sw t5, 4(t3)         # node.next = &arena[i+1]
  j bnext
last:
  sw x0, 4(t3)         # node.next = NULL
bnext:
  addi t1, t1, 1
  blt t1, t2, build

  # Reverse in place.
  li s0, 0             # prev
  la s1, arena         # cur
rev:
  beqz s1, revdone
  lw s2, 4(s1)
  sw s0, 4(s1)
  mv s0, s1
  mv s1, s2
  j rev
revdone:
  # Walk and sum into a0.
  li a0, 0
walk:
  beqz s0, done
  lw t0, 0(s0)
  add a0, a0, t0
  lw s0, 4(s0)
  j walk
done:
  ret

.data
.align 3
arena: .zero 40
`

// Example_linkedList is the paper's second complex test program (§IV):
// building, reversing and walking a singly linked list in assembly, then
// stepping backward and inspecting memory.
func Example_linkedList() {
	m, err := sim.NewFromAsm(sim.DefaultConfig(), linkedListAsm, "main")
	if err != nil {
		panic(err)
	}
	m.Run(100_000)

	sum, _ := m.IntReg("a0")
	fmt.Printf("list sum after reversal = %d (expected 15)\n", sum)

	// Backward simulation: rewind 10 cycles and re-run.
	end := m.Cycle()
	if err := m.GotoCycle(end - 10); err != nil {
		panic(err)
	}
	fmt.Printf("rewound to cycle %d of %d (backward simulation)\n", m.Cycle(), end)
	m.Run(100_000)
	sum2, _ := m.IntReg("a0")
	fmt.Printf("re-run result matches: %v\n", sum == sum2)

	// Show the arena in memory (the memory window's hex dump).
	addr, size, _ := m.LookupLabel("arena")
	dump, _ := m.HexDump(addr, size)
	fmt.Printf("\narena after run:\n%s", dump)
	// Output:
	// list sum after reversal = 15 (expected 15)
	// rewound to cycle 139 of 149 (backward simulation)
	// re-run result matches: true
	//
	// arena after run:
	// 00001000  01 00 00 00 00 00 00 00 02 00 00 00 00 10 00 00  |................|
	// 00001010  03 00 00 00 08 10 00 00 04 00 00 00 10 10 00 00  |................|
	// 00001020  05 00 00 00 18 10 00 00                          |........|
}

// vtableAsm sums the areas of four shapes through per-type vtables.
const vtableAsm = `
main:
  la s0, objs
  li s1, 0
  li s2, 4
  li s3, 0             # total area
vloop:
  slli t0, s1, 2
  slli t1, s1, 3
  add t0, t0, t1       # i * 12
  add t0, s0, t0
  lw t1, 0(t0)         # vtable
  lw t2, 0(t1)         # method[0] = area
  lw a0, 4(t0)         # w
  lw a1, 8(t0)         # h
  addi sp, sp, -4
  sw ra, 0(sp)
  jalr ra, t2, 0       # virtual call
  lw ra, 0(sp)
  addi sp, sp, 4
  add s3, s3, a0
  addi s1, s1, 1
  blt s1, s2, vloop
  mv a0, s3
  ret

rect_area:
  mul a0, a0, a1
  ret

tri_area:
  mul a0, a0, a1
  srai a0, a0, 1
  ret

.data
.align 2
rect_vtable: .word rect_area
tri_vtable:  .word tri_area
objs:
  .word rect_vtable, 3, 4
  .word tri_vtable,  6, 4
  .word rect_vtable, 5, 5
  .word tri_vtable,  10, 3
`

// Example_polymorphism is the paper's third complex test program (§IV):
// C++-style dynamic dispatch modeled in assembly with vtables and indirect
// calls (jalr), showing how the branch unit and BTB handle indirect
// targets.
func Example_polymorphism() {
	m, err := sim.NewFromAsm(sim.DefaultConfig(), vtableAsm, "main")
	if err != nil {
		panic(err)
	}
	m.Run(100_000)

	total, _ := m.IntReg("a0")
	fmt.Printf("total area via dynamic dispatch = %d (expected 64)\n\n", total)

	r := m.Report()
	fmt.Printf("indirect-branch behaviour:\n")
	fmt.Printf("  BTB hits/misses:   %d / %d\n", r.Predictor.BTBHits, r.Predictor.BTBMisses)
	fmt.Printf("  prediction acc.:   %.1f%%\n", 100*r.PredAccuracy)
	fmt.Printf("  pipeline flushes:  %d\n", r.ROBFlushes)
	fmt.Printf("  fetch stalls:      %d cycles (fetch parks on unknown jalr targets)\n", r.FetchStalls)
	// Output:
	// total area via dynamic dispatch = 64 (expected 64)
	//
	// indirect-branch behaviour:
	//   BTB hits/misses:   14 / 5
	//   prediction acc.:   69.2%
	//   pipeline flushes:  4
	//   fetch stalls:      42 cycles (fetch parks on unknown jalr targets)
}

// Example_cacheStudy sweeps L1 associativity and replacement policy on
// stridedWalk: the kind of memory-hierarchy assignment the paper targets
// at computer architecture students (§V).
func Example_cacheStudy() {
	fmt.Println("strided walk: cache hit rate and cycles by geometry/policy")
	fmt.Printf("%-28s %10s %10s %8s\n", "configuration", "hit rate", "cycles", "IPC")

	variants := []struct {
		name   string
		mutate func(*sim.Config)
	}{
		{"direct-mapped LRU", func(c *sim.Config) { c.Cache.Associativity = 1 }},
		{"2-way LRU", func(c *sim.Config) { c.Cache.Associativity = 2 }},
		{"4-way LRU", func(c *sim.Config) { c.Cache.Associativity = 4 }},
		{"8-way LRU", func(c *sim.Config) { c.Cache.Associativity = 8 }},
		{"4-way FIFO", func(c *sim.Config) {
			c.Cache.Associativity = 4
			c.Cache.Replacement = cache.FIFO
		}},
		{"4-way Random", func(c *sim.Config) {
			c.Cache.Associativity = 4
			c.Cache.Replacement = cache.Random
		}},
		{"4-way write-through", func(c *sim.Config) {
			c.Cache.Associativity = 4
			c.Cache.Write = cache.WriteThrough
		}},
		{"cache disabled", func(c *sim.Config) { c.Cache.Enabled = false }},
	}

	for _, v := range variants {
		cfg := sim.DefaultConfig()
		// Small cache so the working set matters: 16 lines x 64 B = 1 KiB.
		cfg.Cache.Lines = 16
		v.mutate(cfg)
		m, err := sim.NewFromAsm(cfg, stridedWalk, "main")
		if err != nil {
			panic(err)
		}
		m.Run(1_000_000)
		r := m.Report()
		fmt.Printf("%-28s %9.1f%% %10d %8.3f\n",
			v.name, 100*r.CacheHitRate, r.Cycles, r.IPC)
	}
	// Output:
	// strided walk: cache hit rate and cycles by geometry/policy
	// configuration                  hit rate     cycles      IPC
	// direct-mapped LRU                  0.0%        167    1.102
	// 2-way LRU                          0.0%        167    1.102
	// 4-way LRU                          0.0%        167    1.102
	// 8-way LRU                         75.0%        148    1.243
	// 4-way FIFO                         0.0%        167    1.102
	// 4-way Random                       3.1%        167    1.102
	// 4-way write-through                0.0%        167    1.102
	// cache disabled                     0.0%        147    1.252
}

// dotNaive: one multiply-accumulate per iteration, serial dependence on
// the accumulator.
const dotNaive = `
main:
  la t0, a
  la t1, b
  li t2, 0            # i
  li t3, 64           # n
  fmv.w.x ft0, x0     # sum = 0
loop:
  slli t4, t2, 2
  add t5, t0, t4
  flw ft1, 0(t5)
  add t6, t1, t4
  flw ft2, 0(t6)
  fmul.s ft3, ft1, ft2
  fadd.s ft0, ft0, ft3
  addi t2, t2, 1
  blt t2, t3, loop
  fcvt.w.s a0, ft0
  ret
.data
.align 4
a: .zero 256
b: .zero 256
`

// dotUnroll4: four partial sums break the accumulator dependence chain.
const dotUnroll4 = `
main:
  la t0, a
  la t1, b
  li t2, 0
  li t3, 64
  fmv.w.x ft0, x0     # sum0
  fmv.w.x ft4, x0     # sum1
  fmv.w.x ft5, x0     # sum2
  fmv.w.x ft6, x0     # sum3
loop:
  slli t4, t2, 2
  add t5, t0, t4
  add t6, t1, t4
  flw ft1, 0(t5)
  flw ft2, 0(t6)
  fmul.s ft3, ft1, ft2
  fadd.s ft0, ft0, ft3
  flw ft1, 4(t5)
  flw ft2, 4(t6)
  fmul.s ft3, ft1, ft2
  fadd.s ft4, ft4, ft3
  flw ft1, 8(t5)
  flw ft2, 8(t6)
  fmul.s ft3, ft1, ft2
  fadd.s ft5, ft5, ft3
  flw ft1, 12(t5)
  flw ft2, 12(t6)
  fmul.s ft3, ft1, ft2
  fadd.s ft6, ft6, ft3
  addi t2, t2, 4
  blt t2, t3, loop
  fadd.s ft0, ft0, ft4
  fadd.s ft5, ft5, ft6
  fadd.s ft0, ft0, ft5
  fcvt.w.s a0, ft0
  ret
.data
.align 4
a: .zero 256
b: .zero 256
`

// dotFMA: fused multiply-add halves the arithmetic instruction count.
const dotFMA = `
main:
  la t0, a
  la t1, b
  li t2, 0
  li t3, 64
  fmv.w.x ft0, x0
  fmv.w.x ft4, x0
loop:
  slli t4, t2, 2
  add t5, t0, t4
  add t6, t1, t4
  flw ft1, 0(t5)
  flw ft2, 0(t6)
  fmadd.s ft0, ft1, ft2, ft0
  flw ft1, 4(t5)
  flw ft2, 4(t6)
  fmadd.s ft4, ft1, ft2, ft4
  addi t2, t2, 2
  blt t2, t3, loop
  fadd.s ft0, ft0, ft4
  fcvt.w.s a0, ft0
  ret
.data
.align 4
a: .zero 256
b: .zero 256
`

// Example_hpcOpt is the paper's motivating use case (§I-B): given an
// algorithm, how do code shape and processor width interact? It runs a
// dot-product kernel in three variants across processor widths 1/2/4/8
// and prints the cycles/IPC matrix, making the width-vs-ILP crossover
// visible.
func Example_hpcOpt() {
	variants := []struct {
		name string
		src  string
	}{
		{"naive", dotNaive},
		{"unroll4", dotUnroll4},
		{"fma", dotFMA},
	}
	widths := []int{1, 2, 4, 8}

	fmt.Println("dot-product (n=64): cycles [IPC] by processor width")
	fmt.Printf("%-10s", "variant")
	for _, w := range widths {
		fmt.Printf("%16s", fmt.Sprintf("%d-wide", w))
	}
	fmt.Println()

	for _, v := range variants {
		fmt.Printf("%-10s", v.name)
		for _, w := range widths {
			cfg, err := sim.WidthConfig(w)
			if err != nil {
				panic(err)
			}
			m, err := sim.NewFromAsm(cfg, v.src, "main")
			if err != nil {
				panic(err)
			}
			m.Run(1_000_000)
			r := m.Report()
			fmt.Printf("%16s", fmt.Sprintf("%d [%.2f]", r.Cycles, r.IPC))
		}
		fmt.Println()
	}
	fmt.Println("\nreading: wider cores shorten every variant, but the single")
	fmt.Println("non-pipelined FP unit (the paper's stated limitation, §III-A)")
	fmt.Println("caps FP throughput — fma wins by halving FP-unit occupancy,")
	fmt.Println("and unrolling mainly helps the narrow cores' fetch bandwidth.")
	// Output:
	// dot-product (n=64): cycles [IPC] by processor width
	// variant             1-wide          2-wide          4-wide          8-wide
	// naive          1044 [0.56]      469 [1.24]      263 [2.22]      242 [2.41]
	// unroll4         692 [0.50]      475 [0.73]      249 [1.40]      248 [1.41]
	// fma             694 [0.52]      342 [1.06]      194 [1.86]      194 [1.86]
	//
	// reading: wider cores shorten every variant, but the single
	// non-pipelined FP unit (the paper's stated limitation, §III-A)
	// caps FP throughput — fma wins by halving FP-unit occupancy,
	// and unrolling mainly helps the narrow cores' fetch bandwidth.
}

// counterLoopAsm counts t0 to 5, storing each value to counter.
const counterLoopAsm = `
main:
  la s0, counter
  li t0, 0
  li t1, 5
loop:
  addi t0, t0, 1      # pc=3: breakpoint here
  sw t0, 0(s0)        # watched store
  bne t0, t1, loop
  lw a0, 0(s0)
  ret
.data
counter: .word 0
`

// Example_debugger shows the paper's future-work development features
// (§V): a breakpoint inside a loop, a watch on a memory cell, stepping
// past triggers, and the chip-area/power estimate for the architecture.
// Its pinned table is the one check on the cost model's output
// (internal/costmodel).
func Example_debugger() {
	m, err := sim.NewFromAsm(sim.DefaultConfig(), counterLoopAsm, "main")
	if err != nil {
		panic(err)
	}

	// Breakpoint on the increment (commit-ordered, like a debugger).
	if err := m.AddBreakpoint(3); err != nil {
		panic(err)
	}
	hits := 0
	for m.RunToBreak(1_000_000) {
		t0, _ := m.IntReg("t0")
		fmt.Printf("breakpoint hit %d at cycle %4d: %s (t0=%d)\n",
			hits+1, m.Cycle(), m.PauseReason(), t0)
		hits++
		if hits == 3 {
			fmt.Println("removing breakpoint, adding a watch on `counter`...")
			m.RemoveBreakpoint(3)
			addr, size, _ := m.LookupLabel("counter")
			if err := m.AddWatch(addr, size); err != nil {
				panic(err)
			}
		}
		m.Resume()
	}
	if m.Paused() {
		fmt.Printf("paused: %s\n", m.PauseReason())
		m.Resume()
		m.Run(1_000_000)
	}

	v, _ := m.IntReg("a0")
	fmt.Printf("\nfinal counter = %d (expected 5) after %d cycles\n\n", v, m.Cycle())

	// The cost model (future-work: chip area and power estimation).
	fmt.Println(m.EstimateCost().FormatText())
	// Output:
	// breakpoint hit 1 at cycle    6: breakpoint at pc=3 (addi t0, t0, 1) (t0=0)
	// breakpoint hit 2 at cycle    8: breakpoint at pc=3 (addi t0, t0, 1) (t0=1)
	// breakpoint hit 3 at cycle   10: breakpoint at pc=3 (addi t0, t0, 1) (t0=2)
	// removing breakpoint, adding a watch on `counter`...
	// breakpoint hit 4 at cycle   11: watch hit: sw t0, 0(s0) stored 4 bytes at address 4096 (watched [4096,4100)) (t0=3)
	// breakpoint hit 5 at cycle   13: watch hit: sw t0, 0(s0) stored 4 bytes at address 4096 (watched [4096,4100)) (t0=4)
	// breakpoint hit 6 at cycle   15: watch hit: sw t0, 0(s0) stored 4 bytes at address 4096 (watched [4096,4100)) (t0=5)
	//
	// final counter = 5 (expected 5) after 23 cycles
	//
	// Cost model — default-2wide
	//
	// ── Chip area (educational kGE model) ─────────────────
	//   L1 cache                               148.8 kGE (43.7%)
	//   functional units                       100.5 kGE (29.5%)
	//   issue windows                           25.2 kGE ( 7.4%)
	//   rename file                             16.8 kGE ( 4.9%)
	//   reorder buffer                          14.4 kGE ( 4.2%)
	//   load/store buffers                      12.8 kGE ( 3.8%)
	//   register files (architectural)          12.0 kGE ( 3.5%)
	//   fetch/decode                             6.0 kGE ( 1.8%)
	//   branch predictor                         4.0 kGE ( 1.2%)
	//   TOTAL                                  340.5 kGE
	//
	// ── Energy for this run ────────────────────────────────
	//   instruction commit                         0.12 nJ
	//   cache misses                               0.08 nJ
	//   instruction fetch                          0.06 nJ
	//   cache hits                                 0.05 nJ
	//   load/store address generation              0.05 nJ
	//   pipeline flushes                           0.04 nJ
	//   FX operations                              0.03 nJ
	//   branch resolution                          0.02 nJ
	//   leakage                                    0.14 nJ
	//   TOTAL                                      0.59 nJ
	//   average power                              2.55 mW
	//   energy per instruction                    29.32 pJ/instr
}
