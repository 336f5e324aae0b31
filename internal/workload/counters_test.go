package workload

import (
	"testing"

	"riscvsim/internal/cache"
	"riscvsim/internal/config"
	"riscvsim/internal/isa"
	"riscvsim/internal/stats"
)

// TestSplitMergeEqualsSerial: for every corpus workload and several split
// boundaries, slicing the run's counters at the boundary (Sub) and
// stitching the pieces back (Add) reproduces the serial run's metrics row
// exactly — every counter and every derived rate, because rates are
// derived once from exactly-summed integers. This is the identity
// time-parallel simulation relies on to report serial-equivalent
// statistics from per-interval deltas.
func TestSplitMergeEqualsSerial(t *testing.T) {
	cfg := config.Default()
	for _, w := range Corpus() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			m, err := NewMachine(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			m.Run(w.MaxCycles)
			if !m.Halted() {
				t.Fatalf("did not halt in %d cycles", w.MaxCycles)
			}
			total := m.Cycle()
			serialRow := FromReport(w, m.Report())

			for _, frac := range []uint64{1, 4, 2, 10} { // 100/frac %
				boundary := total / frac
				mm, err := NewMachine(cfg, w)
				if err != nil {
					t.Fatal(err)
				}
				mm.StepN(boundary)
				prefix := mm.Sim().Counters()
				mm.Run(w.MaxCycles)
				stitched := prefix.Add(mm.Sim().Counters().Sub(prefix))
				row := FromReport(w, stats.NewReport(&stitched, mm.Sim().Facts()))
				if diffs := DiffMetrics(serialRow, row); len(diffs) != 0 {
					t.Errorf("split at %d/%d cycles: stitched row drifts: %+v", boundary, total, diffs)
				}
			}
		})
	}
}

// TestThreeWayMergeAssociative: three real intervals of one run fold to
// the same row regardless of association order.
func TestThreeWayMergeAssociative(t *testing.T) {
	cfg := config.Default()
	w, ok := ByName("memcpy-stream")
	if !ok {
		t.Fatal("memcpy-stream missing from corpus")
	}
	m, err := NewMachine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(w.MaxCycles)
	total := m.Cycle()

	mm, err := NewMachine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	mm.StepN(total / 4)
	c1 := mm.Sim().Counters()
	mm.StepN(total/2 - total/4)
	c2 := mm.Sim().Counters()
	mm.Run(w.MaxCycles)
	full := mm.Sim().Counters()
	row := func(c stats.Counters) Metrics {
		return FromReport(w, stats.NewReport(&c, mm.Sim().Facts()))
	}

	i1, i2, i3 := c1, c2.Sub(c1), full.Sub(c2)
	left := row(i1.Add(i2).Add(i3))
	if diffs := DiffMetrics(left, row(i1.Add(i2.Add(i3)))); len(diffs) != 0 {
		t.Errorf("association order changes the row: %+v", diffs)
	}
	if diffs := DiffMetrics(FromReport(w, m.Report()), left); len(diffs) != 0 {
		t.Errorf("three-way stitch drifts from serial: %+v", diffs)
	}
}

// TestCounterConservationLaws: the accounting identities the timing model
// must satisfy, on every corpus workload under every preset and two
// planted variants of the default one: write-through, and no L1. Goldens
// catch a counter that changed; these catch one that is wrong. Each stall
// counter is bounded by how often a cycle can bump it: commit, rename,
// decode and fetch stalls end their stage for the cycle (once), a load-
// and a store-buffer stall are two outcomes of one rename-stage check, the
// data port starts one access per cycle, and window-full is sampled once
// per issue window. Main memory counts every transfer it makes, so its
// counters follow from the L1's: a write-back L1 reads a line per miss and
// writes one per writeback, a write-through L1 also forwards every
// committed store, and without an L1 every committed store is a write and
// every load sent to the port a read.
func TestCounterConservationLaws(t *testing.T) {
	type shape struct {
		name string
		cfg  *config.CPU
	}
	var shapes []shape
	for _, preset := range []string{"scalar", "default", "wide4"} {
		cfg, ok := config.Preset(preset)
		if !ok {
			t.Fatalf("preset %q missing", preset)
		}
		shapes = append(shapes, shape{preset, cfg})
	}
	writeThrough, noL1 := config.Default(), config.Default()
	writeThrough.Cache.Write = cache.WriteThrough
	noL1.Cache.Enabled = false
	shapes = append(shapes, shape{"write-through", writeThrough}, shape{"no-L1", noL1})

	for _, sh := range shapes {
		cfg := sh.cfg
		for _, w := range Corpus() {
			w := w
			t.Run(sh.name+"/"+w.Name, func(t *testing.T) {
				t.Parallel()
				m, err := NewMachine(cfg, w)
				if err != nil {
					t.Fatal(err)
				}
				m.Run(w.MaxCycles)
				if !m.Halted() {
					t.Fatalf("did not halt in %d cycles", w.MaxCycles)
				}
				c := m.Sim().Counters()
				equal := func(what string, got, want uint64) {
					t.Helper()
					if got != want {
						t.Errorf("%s: %d != %d", what, got, want)
					}
				}
				atMost := func(what string, got, bound uint64) {
					t.Helper()
					if got > bound {
						t.Errorf("%s: %d > %d", what, got, bound)
					}
				}

				equal("cache hits + misses = accesses", c.Cache.Hits+c.Cache.Misses, c.Cache.Accesses)
				equal("correct + mispredicts = predictions", c.Predictor.Correct+c.Predictor.Mispredicts, c.Predictor.Predictions)
				var mix uint64
				for _, n := range c.DynamicMix {
					mix += n
				}
				equal("sum of dynamic mix = committed", mix, c.Committed)
				atMost("committed + squashed <= fetched", c.Committed+c.Squashed, c.Fetched)
				if m.HaltReason() == "pipeline empty" {
					equal("pipeline empty: fetched = committed + squashed", c.Fetched, c.Committed+c.Squashed)
				}
				atMost("committed <= cycles x commit width", c.Committed, c.Cycles*uint64(cfg.CommitWidth))
				for i, fu := range c.FUs {
					atMost(cfg.Units[i].Name+" busy cycles <= cycles", fu.BusyCycles, c.Cycles)
				}
				atMost("fetch stalls <= cycles", c.FetchStalls, c.Cycles)
				atMost("decode stalls <= cycles", c.DecodeStalls, c.Cycles)
				atMost("commit stalls <= cycles", c.CommitStalls, c.Cycles)
				atMost("rename stalls <= cycles", c.Rename.StallsEmpty, c.Cycles)
				atMost("load + store buffer stalls <= cycles", c.LSU.LoadBufStalls+c.LSU.StoreBufStalls, c.Cycles)
				atMost("data port busy <= cycles", c.LSU.BusBusyCycles, c.Cycles)
				atMost("window-full stalls <= windows x cycles", c.WindowStalls, isa.NumFUClasses*c.Cycles)

				mem, line := c.Memory, uint64(cfg.Cache.LineSize)
				stores := c.DynamicMix[isa.TypeStore]
				switch {
				case !cfg.Cache.Enabled:
					equal("no L1: cache accesses = 0", c.Cache.Accesses, 0)
					equal("no L1: memory writes = committed stores", mem.Writes, stores)
					atMost("no L1: memory reads <= port accesses", mem.Reads, c.LSU.BusBusyCycles)
					atMost("no L1: port accesses <= memory reads + writes", c.LSU.BusBusyCycles, mem.Reads+mem.Writes)
					atMost("no L1: bytes read <= 8 x reads", mem.BytesRead, 8*mem.Reads)
				case cfg.Cache.Write == cache.WriteThrough:
					equal("write-through: writebacks = 0", c.Cache.Writebacks, 0)
					atMost("write-through: memory reads <= cache misses", mem.Reads, c.Cache.Misses)
					equal("write-through: bytes read = reads x line size", mem.BytesRead, mem.Reads*line)
					equal("write-through: memory writes = committed stores", mem.Writes, stores)
					// A miss fills a line, unless a store missed: a store
					// touches at most two lines.
					atMost("write-through: cache misses <= memory reads + 2 x committed stores", c.Cache.Misses, mem.Reads+2*stores)
				default:
					equal("memory reads = cache misses", mem.Reads, c.Cache.Misses)
					equal("bytes read = reads x line size", mem.BytesRead, mem.Reads*line)
					equal("memory writes = writebacks", mem.Writes, c.Cache.Writebacks)
					equal("bytes written = writebacks x line size", mem.BytesWritten, c.Cache.Writebacks*line)
				}
				if cfg.Cache.Write == cache.WriteThrough || !cfg.Cache.Enabled {
					atMost("memory writes <= bytes written", mem.Writes, mem.BytesWritten)
					atMost("bytes written <= 8 x writes", mem.BytesWritten, 8*mem.Writes)
				}
			})
		}
	}
}
