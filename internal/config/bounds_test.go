package config_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"riscvsim/internal/config"
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

// atMax returns the default architecture with every bounded leaf of
// config.Schema at its bound at once: every enum at its last member, and
// as many units as the count allows, cycling through the four classes. A
// local history per PHT entry costs the most, so global history is off.
func atMax() *config.CPU {
	c := config.Default()
	for _, f := range config.Schema {
		switch {
		case f.Hi == config.Unbounded:
		case f.Of != nil:
			*f.Of(c) = f.Hi
		case f.Path == "units":
			classes := []string{"FX", "FP", "LS", "Branch"}
			c.Units = nil
			for i := 0; i < f.Hi; i++ {
				c.Units = append(c.Units, config.FUSpec{Name: fmt.Sprintf("U%d", i), Class: classes[i%len(classes)], Latency: 1})
			}
		}
	}
	c.Predictor.GlobalHistory = false
	return c
}

// buildWithinCeiling builds a machine for cfg, steps it 100 cycles and
// fails if that allocated more than allocCeiling. It returns the build's
// error, if any, for the caller to judge.
func buildWithinCeiling(t *testing.T, cfg *config.CPU) (uint64, error) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := sim.NewFromAsm(cfg, tinyProgram, "main")
	if err != nil {
		return 0, err
	}
	m.Run(100)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	alloc := after.TotalAlloc - before.TotalAlloc
	if alloc > allocCeiling {
		t.Fatalf("building and stepping allocated %d bytes, ceiling %d", alloc, allocCeiling)
	}
	return alloc, nil
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
	alloc, err := buildWithinCeiling(t, cfg)
	if err != nil {
		t.Fatalf("every field at its maximum does not build: %v", err)
	}
	t.Logf("every bounded field at its maximum: %d bytes", alloc)
}

// FuzzImportConfig feeds architecture documents to Import. A rejected
// document must come back as an error alone; an accepted one must build a
// machine within allocCeiling that steps 100 cycles without panicking (or
// refuse the program, when no unit executes one of its instructions), and
// every enum in it must print as a member's name, not as "...(n)". The
// seeds, every preset's export, the document at every maximum, one naming
// a retired key, and the default with each enum at its last member and
// one past it, run under go test.
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
	// A retired key (TestRetiredKeysRejected) is refused like any other
	// unknown one.
	f.Add([]byte(strings.Replace(string(doc), "{", `{"snapshotInterval": 1024,`, 1)))
	for _, field := range config.Schema {
		if field.Member == nil || field.Of == nil {
			continue
		}
		for _, n := range []int{field.Hi, field.Hi + 1} {
			c := config.Default()
			*field.Of(c) = n
			doc, err := c.Export()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(doc)
		}
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		cfg, err := config.Import(doc)
		if err != nil {
			if cfg != nil {
				t.Fatalf("rejected document returned a configuration: %v", err)
			}
			return
		}
		for _, e := range []fmt.Stringer{cfg.Cache.Replacement, cfg.Cache.Write, cfg.Predictor.Kind} {
			if name := e.String(); strings.HasSuffix(name, ")") {
				t.Fatalf("accepted document holds %s, no member of its enum", name)
			}
		}
		// An accepted architecture builds, unless no unit of it executes
		// one of the program's instructions.
		if _, err := buildWithinCeiling(t, cfg); err != nil && !strings.Contains(err.Error(), "no functional unit executes") {
			t.Fatalf("accepted architecture does not build: %v", err)
		}
	})
}
