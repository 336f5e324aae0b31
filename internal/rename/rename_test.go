package rename

import (
	"testing"
	"testing/quick"

	"riscvsim/internal/expr"
	"riscvsim/internal/isa"
)

func TestAllocAndCommitFlow(t *testing.T) {
	f := NewFile(4, new(Counters))
	tag, prev, ok := f.Alloc(isa.RegInt, 5)
	if !ok || prev != NoTag {
		t.Fatalf("Alloc = (%d, %d, %v)", tag, prev, ok)
	}
	// The source lookup must now return the speculative copy, not ready.
	src := f.LookupSrc(isa.RegInt, 5)
	if src.Tag != tag || src.Valid {
		t.Errorf("LookupSrc = %+v, want tag %d not valid", src, tag)
	}
	f.SetValue(tag, expr.NewInt(42))
	if v, valid := f.Value(tag); !valid || v.Int() != 42 {
		t.Errorf("Value = %v/%v", v, valid)
	}
	f.Release(src.Tag)
	f.Commit(tag)
	if got := f.ArchValue(isa.RegInt, 5).Int(); got != 42 {
		t.Errorf("arch x5 = %d, want 42", got)
	}
	// After commit with no consumers, the register returns to the pool.
	if f.FreeCount() != 4 {
		t.Errorf("FreeCount = %d, want 4", f.FreeCount())
	}
	// Lookup now sees the architectural value directly.
	src = f.LookupSrc(isa.RegInt, 5)
	if src.Tag != NoTag || !src.Valid || src.Value.Int() != 42 {
		t.Errorf("post-commit LookupSrc = %+v", src)
	}
}

func TestRenameChainNewestWins(t *testing.T) {
	f := NewFile(8, new(Counters))
	t1, _, _ := f.Alloc(isa.RegInt, 3)
	t2, prev2, _ := f.Alloc(isa.RegInt, 3)
	if prev2 != t1 {
		t.Errorf("second rename prev = %d, want %d", prev2, t1)
	}
	f.SetValue(t1, expr.NewInt(1))
	f.SetValue(t2, expr.NewInt(2))
	src := f.LookupSrc(isa.RegInt, 3)
	if src.Tag != t2 || src.Value.Int() != 2 {
		t.Errorf("LookupSrc sees %+v, want newest copy %d", src, t2)
	}
	f.Release(src.Tag)
	// Commit in program order: t1 then t2.
	f.Commit(t1)
	if got := f.ArchValue(isa.RegInt, 3).Int(); got != 1 {
		t.Errorf("after commit t1, arch = %d, want 1", got)
	}
	f.Commit(t2)
	if got := f.ArchValue(isa.RegInt, 3).Int(); got != 2 {
		t.Errorf("after commit t2, arch = %d, want 2", got)
	}
	if f.FreeCount() != 8 {
		t.Errorf("FreeCount = %d, want 8", f.FreeCount())
	}
}

func TestConsumerHoldsRegisterAlive(t *testing.T) {
	f := NewFile(2, new(Counters))
	tag, _, _ := f.Alloc(isa.RegInt, 1)
	src := f.LookupSrc(isa.RegInt, 1) // consumer takes a reference
	f.SetValue(tag, expr.NewInt(7))
	f.Commit(tag)
	// Still referenced by the consumer: must not be freed.
	if f.FreeCount() != 1 {
		t.Errorf("FreeCount = %d, want 1 (consumer holds a ref)", f.FreeCount())
	}
	f.Release(src.Tag)
	if f.FreeCount() != 2 {
		t.Errorf("FreeCount = %d, want 2 after release", f.FreeCount())
	}
}

func TestAllocExhaustionStalls(t *testing.T) {
	var st Counters
	f := NewFile(2, &st)
	f.Alloc(isa.RegInt, 1)
	f.Alloc(isa.RegInt, 2)
	if _, _, ok := f.Alloc(isa.RegInt, 3); ok {
		t.Error("Alloc must fail when the rename file is exhausted")
	}
	if st.StallsEmpty != 1 || st.Allocations != 2 {
		t.Errorf("counters = %+v, want 2 allocations and 1 stall", st)
	}
}

func TestSquashRestoresMapping(t *testing.T) {
	f := NewFile(8, new(Counters))
	t1, _, _ := f.Alloc(isa.RegInt, 3)
	f.SetValue(t1, expr.NewInt(10))
	t2, prev2, _ := f.Alloc(isa.RegInt, 3)
	// Mispredicted path: squash t2; the map must fall back to t1.
	f.Squash(t2, prev2)
	src := f.LookupSrc(isa.RegInt, 3)
	if src.Tag != t1 || src.Value.Int() != 10 {
		t.Errorf("after squash, LookupSrc = %+v, want tag %d value 10", src, t1)
	}
	f.Release(src.Tag)
	f.Commit(t1)
	if f.FreeCount() != 8 {
		t.Errorf("FreeCount = %d, want 8", f.FreeCount())
	}
}

func TestSquashChainYoungestFirst(t *testing.T) {
	f := NewFile(8, new(Counters))
	t1, p1, _ := f.Alloc(isa.RegInt, 4)
	t2, p2, _ := f.Alloc(isa.RegInt, 4)
	t3, p3, _ := f.Alloc(isa.RegInt, 4)
	// Flush all three, youngest first.
	f.Squash(t3, p3)
	f.Squash(t2, p2)
	f.Squash(t1, p1)
	src := f.LookupSrc(isa.RegInt, 4)
	if src.Tag != NoTag {
		t.Errorf("after full squash, map should be architectural, got tag %d", src.Tag)
	}
	if f.FreeCount() != 8 {
		t.Errorf("FreeCount = %d, want 8", f.FreeCount())
	}
}

func TestX0CommitIsDiscarded(t *testing.T) {
	f := NewFile(4, new(Counters))
	tag, _, _ := f.Alloc(isa.RegInt, isa.RegZero)
	f.SetValue(tag, expr.NewInt(99))
	f.Commit(tag)
	if got := f.ArchValue(isa.RegInt, isa.RegZero).Int(); got != 0 {
		t.Errorf("x0 = %d after commit, must stay 0", got)
	}
	f.SetArchValue(isa.RegInt, isa.RegZero, expr.NewInt(5))
	if got := f.ArchValue(isa.RegInt, isa.RegZero).Int(); got != 0 {
		t.Errorf("x0 = %d after SetArchValue, must stay 0", got)
	}
}

func TestIntAndFloatFilesAreSeparate(t *testing.T) {
	f := NewFile(8, new(Counters))
	ti, _, _ := f.Alloc(isa.RegInt, 7)
	tf, _, _ := f.Alloc(isa.RegFloat, 7)
	f.SetValue(ti, expr.NewInt(1))
	f.SetValue(tf, expr.NewFloat(2.5))
	f.Commit(ti)
	f.Commit(tf)
	if f.ArchValue(isa.RegInt, 7).Int() != 1 {
		t.Error("int x7 wrong")
	}
	if f.ArchValue(isa.RegFloat, 7).Float() != 2.5 {
		t.Error("float f7 wrong")
	}
}

func TestRenamedCopiesList(t *testing.T) {
	f := NewFile(8, new(Counters))
	t1, _, _ := f.Alloc(isa.RegInt, 6)
	t2, _, _ := f.Alloc(isa.RegInt, 6)
	copies := f.RenamedCopies(isa.RegInt, 6)
	if len(copies) != 2 {
		t.Fatalf("RenamedCopies = %v, want 2 entries", copies)
	}
	seen := map[int]bool{copies[0]: true, copies[1]: true}
	if !seen[t1] || !seen[t2] {
		t.Errorf("RenamedCopies = %v, want {%d, %d}", copies, t1, t2)
	}
}

func TestLiveView(t *testing.T) {
	regs := isa.NewRegisterFile()
	f := NewFile(8, new(Counters))
	tag, _, _ := f.Alloc(isa.RegInt, 10)
	f.SetValue(tag, expr.NewInt(123))
	views := f.LiveView(regs)
	if len(views) != 1 {
		t.Fatalf("LiveView has %d entries, want 1", len(views))
	}
	v := views[0]
	if v.Arch != "x10" || v.Value != "123" || !v.Valid || v.Tag != TagName(tag) {
		t.Errorf("view = %+v", v)
	}
}

// Property: any interleaving of alloc/commit/squash conserves registers —
// in-use + free always equals capacity, and fully draining returns
// everything to the free list.
func TestPropertyRegisterConservation(t *testing.T) {
	type step struct {
		Reg    uint8
		Commit bool
	}
	f := func(steps []step) bool {
		const capacity = 16
		file := NewFile(capacity, new(Counters))
		type live struct{ tag, prev int }
		var stack []live
		for _, s := range steps {
			inUse := 0
			for _, r := range file.spec {
				if r.inUse {
					inUse++
				}
			}
			if inUse+file.FreeCount() != capacity {
				return false
			}
			if s.Commit && len(stack) > 0 {
				// Commit the oldest (program order).
				l := stack[0]
				stack = stack[1:]
				file.SetValue(l.tag, expr.NewInt(1))
				file.Commit(l.tag)
			} else {
				tag, prev, ok := file.Alloc(isa.RegInt, int(s.Reg%31)+1)
				if !ok {
					continue
				}
				stack = append(stack, live{tag, prev})
			}
		}
		// Squash everything left, youngest first.
		for i := len(stack) - 1; i >= 0; i-- {
			file.Squash(stack[i].tag, stack[i].prev)
		}
		return file.FreeCount() == capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
