package workload

import "fmt"

// Long-run scaling workloads: the corpus programs are deliberately small
// (tens of thousands of cycles) so the golden-metrics gate stays fast;
// time-parallel simulation and its benchmarks need runs long enough that
// a multi-thousand-instruction warm-up prefix is measurement noise.
// LongStream parameterizes the memcpy-stream kernel with a pass-count
// knob so arbitrarily long runs exist WITHOUT touching the 13 golden
// corpus rows: like Repros(), LongStream workloads stay out of Corpus(),
// so no golden baseline ever needs re-generating when the knob moves
// (workload_test.go pins the separation).

// LongStreamBenchPasses sizes LongStreamBench at ≥50M detailed cycles:
// each pass of the 2048-word copy loop costs ~9.7k cycles on the default
// preset, so 6000 passes lands near 58M — long enough that interval
// warm-up (~20k instructions per worker) is far below measurement noise.
const LongStreamBenchPasses = 6000

// longStreamCyclesPerPass bounds MaxCycles with generous headroom: the
// default preset needs ~9.7k cycles per pass; doubling covers any preset
// the suite runs.
const longStreamCyclesPerPass = 20_000

// LongStream returns the streaming-copy workload scaled to the given
// number of 8 KiB copy passes. The kernel is memcpy-stream's: an index
// ramp seeded once, then passes × 2048 word copies, then a destination
// checksum into a0 — store-heavy so coherence (store buffer, dirty
// lines) is load-bearing at time-parallel interval boundaries. The a0
// checksum is pass-count independent (the destination holds the same
// ramp after every pass), so any pass count validates against the same
// final value.
func LongStream(passes uint64) Workload {
	if passes == 0 {
		passes = 1
	}
	return Workload{
		Name: fmt.Sprintf("long-stream-%d", passes),
		Profile: fmt.Sprintf(
			"memcpy-stream kernel scaled to %d passes (~%dk cycles); long-run scaling workload for time-parallel simulation",
			passes, passes*10),
		Tags:      []string{"long-run", "streaming", "memory-bound"},
		Source:    longStreamSource(passes),
		Entry:     "main",
		MaxCycles: passes*longStreamCyclesPerPass + 1_000_000,
	}
}

// LongStreamBench is the canonical ≥50M-cycle benchmarking variant
// (BenchmarkParallel, run by hand).
func LongStreamBench() Workload {
	return LongStream(LongStreamBenchPasses)
}

func longStreamSource(passes uint64) string {
	return fmt.Sprintf(`
main:
  # Seed the source buffer with an index ramp.
  la   t0, src
  li   t1, 2048             # words
  li   t2, 0
seed:
  slli t3, t2, 2
  add  t3, t0, t3
  sw   t2, 0(t3)
  addi t2, t2, 1
  blt  t2, t1, seed

  li   s0, 0                # pass
  li   s1, %d
pass:
  la   t0, src
  la   t4, dst
  li   t2, 0
copy:
  slli t3, t2, 2
  add  t5, t0, t3
  lw   t6, 0(t5)
  add  t5, t4, t3
  sw   t6, 0(t5)
  addi t2, t2, 1
  blt  t2, t1, copy
  addi s0, s0, 1
  blt  s0, s1, pass

  # Checksum the destination tail.
  la   t4, dst
  lw   a0, 8188(t4)
  ret

.data
.align 6
src: .zero 8192
dst: .zero 8192
`, passes)
}
