package workload

import (
	"testing"

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
// must satisfy, on every corpus workload under every preset. Goldens
// catch a counter that changed; these catch one that is wrong. Each stall
// counter is bounded by how often a cycle can bump it: commit, rename,
// decode and fetch stalls end their stage for the cycle (once), a load-
// and a store-buffer stall are two outcomes of one rename-stage check, the
// data port starts one access per cycle, and window-full is sampled once
// per issue window.
func TestCounterConservationLaws(t *testing.T) {
	for _, preset := range []string{"scalar", "default", "wide4"} {
		cfg, ok := config.Preset(preset)
		if !ok {
			t.Fatalf("preset %q missing", preset)
		}
		for _, w := range Corpus() {
			w := w
			t.Run(preset+"/"+w.Name, func(t *testing.T) {
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
				atMost("rename stalls <= cycles", c.RenameStalls, c.Cycles)
				atMost("load + store buffer stalls <= cycles", c.LSU.LoadBufStalls+c.LSU.StoreBufStalls, c.Cycles)
				atMost("data port busy <= cycles", c.LSU.BusBusyCycles, c.Cycles)
				atMost("window-full stalls <= windows x cycles", c.WindowStalls, isa.NumFUClasses*c.Cycles)
				equal("rename stalls counted twice agree", c.RenameStalls, c.Rename.StallsEmpty)
			})
		}
	}
}
