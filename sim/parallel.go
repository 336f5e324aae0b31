package sim

import (
	"fmt"
	"runtime"
	"sync"

	"riscvsim/internal/core"
	"riscvsim/internal/stats"
)

// Time-parallel simulation (docs/parallel.md): one long run is split into
// K intervals along the committed-instruction axis and the intervals are
// simulated in detailed mode concurrently, one goroutine and one fork
// (Machine.restore) each. Interval start states are produced
// speculatively by a serial fast-forward scout pass (~15× detailed speed)
// from the machine's own cycle 0 that keeps a snapshot list along the
// committed axis; each worker restores the snapshot below its interval,
// runs a detailed warm-up prefix whose metrics are discarded (fast-forward cannot reproduce timing state —
// caches, predictor, occupancies), and measures its interval as a
// statistics delta. The coordinator verifies every speculation: interval
// i's detailed end state must hash-equal interval i+1's start state
// (architectural state at a committed-count boundary is path-independent,
// pinned by core's TestRunToCommittedCrossEngine); a mismatch means the
// speculative state was wrong, and the interval re-runs from the now-exact
// predecessor state — self-healing, with serial execution as the fixed
// point. The final architectural state is always bit-exact with the
// serial run: the last interval's machine ran detailed from a verified
// (or healed) state to the real halt and is adopted as the machine's
// simulation. Only the stitched timing metrics carry the documented
// warm-up approximation.

// DefaultWarmupInstructions is the detailed warm-up prefix run (and
// discarded) at the head of each speculatively-started interval, in
// committed instructions. Sized to refill the default 16KiB L1 and the
// branch predictor tables a few times over — docs/parallel.md derives
// the resulting metric error bound.
const DefaultWarmupInstructions = 20_000

// parallelMinMeasure is the smallest measured interval worth a worker;
// shorter remainders fold into the serial fallback.
const parallelMinMeasure = 256

// ParallelOptions tunes Machine.RunParallel.
type ParallelOptions struct {
	// WarmupInstructions is the per-interval detailed warm-up prefix in
	// committed instructions; 0 selects DefaultWarmupInstructions.
	WarmupInstructions uint64
	// MaxCycles bounds the detailed work, like Run's argument: the scout
	// pass must halt within MaxCycles×CommitWidth committed instructions
	// and no single interval may run longer than MaxCycles detailed
	// cycles. Required (0 is an error): time-parallel simulation only
	// works for terminating programs.
	MaxCycles uint64
}

// IntervalResult describes one interval of a parallel run.
type IntervalResult struct {
	// Start/End are the interval's measurement boundaries in committed
	// instructions: this worker's statistics cover [Start, End).
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
	// Warmup is the discarded detailed warm-up prefix length in committed
	// instructions (0 for interval 0, which starts exact).
	Warmup uint64 `json:"warmup"`
	// Cycles is the measured detailed cycle count of the interval.
	Cycles uint64 `json:"cycles"`
	// Healed records that the speculative start state failed hash
	// verification and the interval was re-run from the predecessor's
	// exact end state.
	Healed bool `json:"healed,omitempty"`
}

// ParallelResult is the outcome of a parallel run.
type ParallelResult struct {
	// Report is the stitched statistics document: the per-interval
	// counter deltas summed (stats.Counters) and every rate derived once
	// from the sums. The counters differ from a serial run's only by the
	// warm-up approximation (docs/parallel.md).
	Report *Report `json:"report"`
	// Intervals describes each interval in order.
	Intervals []IntervalResult `json:"intervals"`
	// Workers is the parallelism actually used after sizing the run
	// (1 means the run degenerated to serial execution, exact by
	// definition).
	Workers int `json:"workers"`
	// Healed counts intervals that failed speculation verification and
	// re-ran from exact state.
	Healed int `json:"healed"`
	// ScoutCommitted is the committed-instruction count the fast-forward
	// scout executed (its wall cost amortizes across workers).
	ScoutCommitted uint64 `json:"scoutCommitted"`
}

// parallelTestCorrupt, when set (tests only), mutates worker i's
// simulation after its warm-up and before its start-state hash is taken —
// forcing the speculation-verification mismatch path so healing is
// exercised end to end.
var parallelTestCorrupt func(interval int, s *core.Simulation)

// parallelWorker is one interval's execution state.
type parallelWorker struct {
	sim       *core.Simulation
	start     uint64 // measurement boundary (committed instructions)
	end       uint64 // successor's boundary; last worker runs to halt
	warmup    uint64
	last      bool
	baseline  stats.Counters // statistics ledger at start
	measured  stats.Counters // ledger at end minus baseline
	startHash uint64         // arch hash of the state measurement began from
	endHash   uint64         // arch hash after reaching end (drained)
	cycles    uint64         // measured detailed cycles
	healed    bool
	err       error
}

// RunParallel simulates the machine's program to completion on k
// concurrent detailed workers (k<=0 selects GOMAXPROCS) and returns the
// stitched statistics. The machine must sit at cycle zero. On success the
// machine holds the final simulation state — bit-exact with a serial run
// (same ArchStateHash, registers, memory, halt story) — and, like a
// fast-forwarded run, has its floor at the final cycle: the parallel
// intervals leave no serial timing history to navigate into.
// No trace events are emitted. On error the machine is left untouched at cycle zero.
func (m *Machine) RunParallel(k int, opts ParallelOptions) (*ParallelResult, error) {
	if k <= 0 {
		k = runtime.GOMAXPROCS(0)
	}
	if opts.MaxCycles == 0 {
		return nil, fmt.Errorf("sim: RunParallel requires MaxCycles > 0")
	}
	if m.sim.Cycle() != 0 {
		return nil, fmt.Errorf("sim: RunParallel requires a machine at cycle 0 (at %d)", m.sim.Cycle())
	}
	if m.sim.Halted() {
		return nil, fmt.Errorf("sim: RunParallel requires a runnable machine")
	}
	m.sealFloor()
	warmup := opts.WarmupInstructions
	if warmup == 0 {
		warmup = DefaultWarmupInstructions
	}

	// Phase 1 — scout: one serial fast-forward pass over the whole
	// program learns the total committed-instruction count N and drops
	// state snapshots at known committed counts, the speculative interval
	// start states. Budget: a detailed run of MaxCycles cycles commits at
	// most MaxCycles×CommitWidth instructions.
	total, snaps, err := m.scoutPass(k, warmup, opts.MaxCycles)
	if err != nil {
		return nil, err
	}

	// Size the run: every interval needs its warm-up plus something worth
	// measuring. Degenerate runs fall back to plain serial execution
	// (exact, the floor stays at cycle 0 — the run keeps its full rewind history).
	for k > 1 && total < uint64(k)*(warmup+parallelMinMeasure) {
		k--
	}
	if k == 1 {
		m.Run(opts.MaxCycles)
		if !m.sim.Halted() {
			return nil, fmt.Errorf("sim: program did not halt within %d cycles", opts.MaxCycles)
		}
		return &ParallelResult{
			Report:         m.Report(),
			Workers:        1,
			ScoutCommitted: total,
			Intervals: []IntervalResult{
				{Start: 0, End: m.sim.Committed(), Cycles: m.sim.Cycle()},
			},
		}, nil
	}

	// Phase 2 — plan boundaries: interval i's measurement starts at
	// m_i = snap_i.committed + warmup where snap_i is the latest scout
	// snapshot at or below the nominal split i×N/k minus the warm-up.
	// Anchoring boundaries at snapshots keeps every warm-up exactly
	// `warmup` long; the snapshot spacing bounds the imbalance.
	workers := make([]*parallelWorker, 0, k)
	workers = append(workers, &parallelWorker{start: 0})
	chosen := []snapshot{snaps.floor}
	for i := 1; i < k; i++ {
		nominal := total * uint64(i) / uint64(k)
		var snapAt uint64
		if nominal > warmup {
			snapAt = nominal - warmup
		}
		sn := snaps.latest(snapAt, byCommitted)
		start := sn.committed + warmup
		prev := workers[len(workers)-1]
		if start <= prev.start+parallelMinMeasure || start+parallelMinMeasure > total {
			continue // interval collapsed into its neighbor
		}
		workers = append(workers, &parallelWorker{start: start, warmup: warmup})
		chosen = append(chosen, sn)
	}
	for i, w := range workers {
		if i+1 < len(workers) {
			w.end = workers[i+1].start
		} else {
			w.last = true
			w.end = total
		}
	}

	// Phase 3 — fork and run all intervals concurrently.
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *parallelWorker) {
			defer wg.Done()
			w.err = w.runInterval(m, i, chosen[i], opts.MaxCycles)
		}(i, w)
	}
	wg.Wait()
	for _, w := range workers {
		if w.err != nil {
			return nil, w.err
		}
	}

	// Phase 4 — verify the speculation chain and heal mismatches.
	// Interval i's detailed end state and interval i+1's speculative
	// start state sit at the same committed-count boundary, so their
	// architectural hashes must match; if not, the speculation was wrong
	// and interval i+1 re-runs from i's end state — which IS the exact
	// state, because interval 0 starts exact and healing preserves the
	// invariant inductively. Healing cascades; the worst case is the
	// serial run.
	healed := 0
	for i := 0; i+1 < len(workers); i++ {
		w, next := workers[i], workers[i+1]
		if w.endHash == next.startHash {
			continue
		}
		healed++
		hs := w.sim // at next.start, coherent (drained for hashing)
		w.sim = nil
		nw := &parallelWorker{
			sim: hs, start: next.start, end: next.end, last: next.last,
			warmup: 0, healed: true, startHash: w.endHash,
		}
		nw.baseline = hs.Counters()
		if err := nw.measure(opts.MaxCycles); err != nil {
			return nil, err
		}
		workers[i+1] = nw
	}

	// Phase 5 — stitch statistics and adopt the final machine state.
	var sum stats.Counters
	result := &ParallelResult{Workers: len(workers), Healed: healed}
	for _, w := range workers {
		sum = sum.Add(w.measured)
		result.Intervals = append(result.Intervals, IntervalResult{
			Start: w.start, End: w.end, Warmup: w.warmup,
			Cycles: w.cycles, Healed: w.healed,
		})
	}
	result.ScoutCommitted = total

	// The last interval ran to the real halt: the halt story and the
	// end-of-run gauges are its.
	final := workers[len(workers)-1].sim
	result.Report = stats.NewReport(&sum, final.Facts())
	m.adopt(final)
	// The parallel region has no serial timing history: like a
	// fast-forwarded prefix, it ends at the machine's new floor.
	m.moveFloor()
	return result, nil
}

// scoutPass runs the whole program once in fast-forward mode on a fork
// of the machine's own cycle 0, keeping a snapshot list along the
// committed axis. Its spacing starts at the warm-up length (so boundaries
// land within one warm-up of their nominal split) and its bound grows
// with k.
func (m *Machine) scoutPass(k int, warmup, maxCycles uint64) (uint64, *snapList, error) {
	scout, err := m.restore(m.snaps.floor, 0)
	if err != nil {
		return 0, nil, err
	}
	scout.SetEngineMode(core.EngineFastForward)
	budget := maxCycles * uint64(m.cfg.CommitWidth)
	if budget < maxCycles { // overflow
		budget = maxCycles
	}
	snaps := &snapList{floor: m.snaps.floor, spacing: max(warmup, 1024), bound: max(8*k, 16)}
	for !scout.Halted() && scout.Cycle() < budget {
		scout.RunToCommitted(scout.Committed()+snaps.spacing, budget-scout.Cycle())
		if scout.Halted() {
			break
		}
		sn, err := capture(scout)
		if err != nil {
			return 0, nil, fmt.Errorf("sim: scout snapshot: %w", err)
		}
		snaps.add(sn)
	}
	if !scout.Halted() {
		return 0, nil, fmt.Errorf("sim: program did not halt within the scout budget of %d committed instructions — time-parallel simulation requires a terminating run", budget)
	}
	return scout.Committed(), snaps, nil
}

// runInterval executes one worker: fork from the speculative start
// snapshot, run the detailed warm-up to the measurement boundary, record
// the baseline and the start-state hash, then measure to the interval
// end.
func (w *parallelWorker) runInterval(m *Machine, i int, sn snapshot, maxCycles uint64) error {
	ws, err := m.restore(sn, 0)
	if err != nil {
		return fmt.Errorf("sim: interval %d: restoring scout state: %w", i, err)
	}
	w.sim = ws
	if w.start > 0 {
		w.sim.RunToCommitted(w.start, maxCycles)
		if w.sim.Committed() != w.start || w.sim.Halted() {
			return fmt.Errorf("sim: interval %d: warm-up ended at %d committed (halted=%v), want %d",
				i, w.sim.Committed(), w.sim.Halted(), w.start)
		}
		w.baseline = w.sim.Counters()
		if parallelTestCorrupt != nil {
			parallelTestCorrupt(i, w.sim)
		}
		h, err := coherentHash(m, w.sim)
		if err != nil {
			return fmt.Errorf("sim: interval %d: hashing start state: %w", i, err)
		}
		w.startHash = h
	}
	return w.measure(maxCycles)
}

// measure runs the worker's measurement window [start, end) and records
// its counter delta and (for non-final intervals) the coherent end-state
// hash. The final interval runs to the program's real halt — its
// simulation becomes the machine's final state.
func (w *parallelWorker) measure(maxCycles uint64) error {
	before := w.sim.Cycle()
	if w.last {
		w.sim.Run(maxCycles)
		if !w.sim.Halted() {
			return fmt.Errorf("sim: final interval did not halt within %d cycles", maxCycles)
		}
	} else {
		w.sim.RunToCommitted(w.end, maxCycles)
		// A halt before the boundary means the speculative start state
		// diverged from the true run (the scout promised more
		// instructions); the end-hash comparison below catches it and
		// healing re-runs the successor — and this interval's own start
		// was either exact or already healed.
	}
	w.cycles = w.sim.Cycle() - before
	w.measured = w.sim.Counters().Sub(w.baseline)
	// Hash after the counters: draining perturbs cache counters and must
	// not leak into the measured statistics. The last interval halted,
	// so its state is already coherent (halt paths drain + flush).
	if !w.last {
		w.sim.DrainCoherent()
		w.endHash = w.sim.ArchHash()
	}
	return nil
}

// coherentHash computes the architectural hash of a live simulation
// without perturbing it: the state round-trips through a fork which is
// drained and hashed in its place.
func coherentHash(m *Machine, s *core.Simulation) (uint64, error) {
	sn, err := capture(s)
	if err != nil {
		return 0, err
	}
	scratch, err := m.restore(sn, 0)
	if err != nil {
		return 0, err
	}
	scratch.DrainCoherent()
	return scratch.ArchHash(), nil
}
