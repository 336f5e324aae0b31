package asm_test

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"riscvsim/internal/asm"
	"riscvsim/internal/memory"
	"riscvsim/internal/workload"
)

// FuzzAssemble: any source either assembles or fails with an ErrorList,
// never panics, and costs time and heap in proportion to its size. The one
// failure outside the list is the allocator's, when the data image does not
// fit memory. The seeds (the corpus, compiled quicksort and every hostile
// input of errors_test.go) run under go test; CI's fuzz-smoke job mutates
// them for 30 s.
func FuzzAssemble(f *testing.F) {
	for _, w := range workload.Corpus() {
		f.Add(w.Source)
	}
	qs := quicksortC(f)
	f.Add(compileC(f, qs, 0))
	f.Add(compileC(f, qs, 2))
	for _, src := range asm.HostileSources() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		mem := memory.New(memory.DefaultConfig())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		_, err := asm.Assemble(src, pinSet, pinRegs, mem)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)

		var list asm.ErrorList
		if err != nil && !errors.As(err, &list) {
			t.Fatalf("error %q (%T) is not an ErrorList", err, err)
		}
		// Bounds with wide headroom: a line-at-a-time assembler allocates
		// a few dozen bytes per source byte and the image pages it
		// writes, and runs at tens of MB/s.
		if limit := 2*mem.Size() + 64<<10 + 256*len(src); after.TotalAlloc-before.TotalAlloc > uint64(limit) {
			t.Errorf("%d source bytes allocated %d bytes, limit %d", len(src), after.TotalAlloc-before.TotalAlloc, limit)
		}
		if limit := 2*time.Second + time.Duration(len(src))*5*time.Microsecond; elapsed > limit {
			t.Errorf("%d source bytes took %v, limit %v", len(src), elapsed, limit)
		}
	})
}
