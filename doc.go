// Package riscvsim is a Go reproduction of "Web-Based Simulator of
// Superscalar RISC-V Processors" (Jaros, Majer, Horky, Vavra; SC 2024,
// arXiv:2411.07721): a configurable superscalar out-of-order RV32IM(F)
// processor simulator with register renaming, reorder buffer, issue
// windows, load/store buffers, an L1 cache, branch prediction, a built-in
// C compiler, an HTTP JSON simulation server, a CLI, and the paper's full
// evaluation harness.
//
// The public API lives in riscvsim/sim; see README.md for a tour and
// docs/architecture.md for the package inventory. The benchmarks in
// bench_test.go regenerate every table and figure of the paper's
// evaluation (docs/performance.md records the measured results).
//
// The simulation server speaks a versioned JSON protocol under /api/v1
// (docs/api.md): typed request/response documents and a machine-readable
// error envelope defined in riscvsim/internal/api, POST /api/v1/batch
// for fanning independent simulations across a worker pool, and
// POST /api/v1/session/stream for NDJSON push-streams of a running
// simulation. /api/v1 is the only URL space.
//
// Correctness of the two execution semantics (the specialized fast path
// and the postfix expression interpreter) is guarded by a co-simulation
// fuzzer (docs/fuzzing.md): riscvsim -fuzz generates constrained random
// RV32IM programs, runs both engines in lockstep, and shrinks any
// divergence to a minimal reproducer.
package riscvsim
