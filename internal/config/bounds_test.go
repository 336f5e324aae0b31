package config_test

import (
	"fmt"
	"runtime"
	"testing"

	"riscvsim/internal/cache"
	"riscvsim/internal/config"
	"riscvsim/internal/predictor"
	"riscvsim/sim"
)

// allocCeiling is what building a machine from any accepted architecture
// document, and stepping it 100 cycles, may allocate. With every bounded
// field at its maximum at once that measures 0.7 MB (x86-64, go1.24):
// memory pages and cache line data are allocated on first touch. Without
// the bounds, a 16 Mi-entry BTB alone allocated 403 MB.
const allocCeiling = 16 << 20

// tinyProgram is the 3-line program every bounded machine runs.
const tinyProgram = "main:\n  li a0, 1\n  ret\n"

// atMax returns the default architecture with every bounded field at its
// maximum at once.
func atMax() *config.CPU {
	c := config.Default()
	c.ROBSize = config.MaxROBSize
	c.RenameRegisters = config.MaxRenameRegisters
	c.FetchWidth = config.MaxWidth
	c.CommitWidth = config.MaxWidth
	c.JumpsPerCycle = config.MaxWidth
	c.FXWindow = config.MaxWindowSize
	c.FPWindow = config.MaxWindowSize
	c.LSWindow = config.MaxWindowSize
	c.BranchWindow = config.MaxWindowSize
	c.LoadBufferSize = config.MaxWindowSize
	c.StoreBufferSize = config.MaxWindowSize
	c.MaxLogEntries = config.MaxLogBound
	c.Units = nil
	classes := []string{"FX", "FP", "LS", "Branch"}
	for i := 0; i < config.MaxUnits; i++ {
		c.Units = append(c.Units, config.FUSpec{Name: fmt.Sprintf("U%d", i), Class: classes[i%len(classes)], Latency: 1})
	}
	c.Memory.Size = config.MaxMemorySize
	c.Cache.Lines = cache.MaxLines
	c.Cache.LineSize = cache.MaxLineSize
	c.Predictor.BTBSize = predictor.MaxBTBSize
	c.Predictor.PHTSize = predictor.MaxPHTSize
	c.Predictor.GlobalHistory = false // a local history per PHT entry as well
	return c
}

// buildWithinCeiling builds a machine for cfg, steps it 100 cycles and
// fails if that allocated more than allocCeiling.
func buildWithinCeiling(t *testing.T, cfg *config.CPU) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := sim.NewFromAsm(cfg, tinyProgram, "main")
	if err != nil {
		t.Fatalf("accepted architecture does not build: %v", err)
	}
	m.Run(100)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	alloc := after.TotalAlloc - before.TotalAlloc
	if alloc > allocCeiling {
		t.Fatalf("building and stepping allocated %d bytes, ceiling %d", alloc, allocCeiling)
	}
	return alloc
}

func TestMachineAtEveryMaximumWithinCeiling(t *testing.T) {
	doc, err := atMax().Export()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := config.Import(doc)
	if err != nil {
		t.Fatalf("every field at its maximum is rejected: %v", err)
	}
	t.Logf("every bounded field at its maximum: %d bytes", buildWithinCeiling(t, cfg))
}

// FuzzImportConfig feeds architecture documents to Import. A rejected
// document must come back as an error alone; an accepted one must build a
// machine within allocCeiling that steps 100 cycles without panicking.
// The seeds, every preset's export and the document at every maximum, run
// under go test.
func FuzzImportConfig(f *testing.F) {
	for _, w := range []int{1, 2, 4, 8} { // every preset, and wide-8
		c, err := config.WidthPreset(w)
		if err != nil {
			f.Fatal(err)
		}
		doc, err := c.Export()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	doc, err := atMax().Export()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(doc)
	f.Fuzz(func(t *testing.T, doc []byte) {
		cfg, err := config.Import(doc)
		if err != nil {
			if cfg != nil {
				t.Fatalf("rejected document returned a configuration: %v", err)
			}
			return
		}
		buildWithinCeiling(t, cfg)
	})
}
