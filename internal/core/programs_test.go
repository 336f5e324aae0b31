package core

import (
	"testing"

	"riscvsim/internal/config"
)

// Complex-program tests, matching the paper's system-level validation:
// "The functionality of several more complex programs is also tested, such
// as array sorting using the quicksort algorithm, working with a linked
// list, and polymorphism (dynamic dispatch)" (§IV).

// QuicksortAsm sorts the 12-word array `arr` in place with an in-place
// Lomuto-partition quicksort. Exported for reuse by examples and benches.
const QuicksortAsm = `
# quicksort(arr, 0, N-1)
main:
  addi sp, sp, -4
  sw ra, 0(sp)
  la a0, arr
  li a1, 0
  li a2, 11
  call quicksort
  lw ra, 0(sp)
  addi sp, sp, 4
  ret

# quicksort(a0=base, a1=lo, a2=hi)
quicksort:
  bge a1, a2, qs_done        # lo >= hi -> done
  addi sp, sp, -16
  sw ra, 0(sp)
  sw a1, 4(sp)
  sw a2, 8(sp)
  call partition             # a0 = pivot index p
  sw a0, 12(sp)
  lw a1, 4(sp)               # recurse left: (lo, p-1)
  addi a2, a0, -1
  la a0, arr
  call quicksort
  lw a0, 12(sp)
  addi a1, a0, 1             # recurse right: (p+1, hi)
  lw a2, 8(sp)
  la a0, arr
  call quicksort
  lw ra, 0(sp)
  addi sp, sp, 16
qs_done:
  ret

# partition(a0=base, a1=lo, a2=hi) -> a0 = pivot index (Lomuto)
partition:
  slli t0, a2, 2
  add t0, a0, t0
  lw t1, 0(t0)               # pivot = a[hi]
  addi t2, a1, -1            # i = lo-1
  mv t3, a1                  # j = lo
ploop:
  bge t3, a2, pdone
  slli t4, t3, 2
  add t4, a0, t4
  lw t5, 0(t4)               # a[j]
  bge t5, t1, pskip          # if a[j] < pivot
  addi t2, t2, 1             # i++
  slli t6, t2, 2
  add t6, a0, t6
  lw s0, 0(t6)               # swap a[i], a[j]
  sw t5, 0(t6)
  sw s0, 0(t4)
pskip:
  addi t3, t3, 1
  j ploop
pdone:
  addi t2, t2, 1             # i++
  slli t4, t2, 2
  add t4, a0, t4
  lw t5, 0(t4)               # swap a[i], a[hi]
  lw t6, 0(t0)
  sw t6, 0(t4)
  sw t5, 0(t0)
  mv a0, t2
  ret

.data
arr: .word 9, -3, 5, 1, 12, -7, 0, 4, 4, 100, -50, 2
`

func TestQuicksortProgram(t *testing.T) {
	sim := runSrc(t, QuicksortAsm)
	if sim.Exception() != nil {
		t.Fatalf("exception: %v", sim.Exception())
	}
	arr, ok := sim.Memory().Lookup("arr")
	if !ok {
		t.Fatal("arr not allocated")
	}
	want := []int32{-50, -7, -3, 0, 1, 2, 4, 4, 5, 9, 12, 100}
	for i, w := range want {
		v, exc := sim.Memory().ReadRaw(arr.Addr+4*i, 4)
		if exc != nil {
			t.Fatal(exc)
		}
		if int32(v) != w {
			t.Errorf("arr[%d] = %d, want %d", i, int32(v), w)
		}
	}
	// The sort must behave identically on every preset architecture.
	for name, cfg := range config.Presets() {
		s2 := runSrcOn(t, cfg, QuicksortAsm)
		if s2.Exception() != nil {
			t.Errorf("%s: exception %v", name, s2.Exception())
			continue
		}
		a2, _ := s2.Memory().Lookup("arr")
		for i, w := range want {
			v, _ := s2.Memory().ReadRaw(a2.Addr+4*i, 4)
			if int32(v) != w {
				t.Errorf("%s: arr[%d] = %d, want %d", name, i, int32(v), w)
			}
		}
	}
}

// LinkedListAsm builds a 5-node singly linked list in a static arena,
// reverses it, then sums the values by walking it. Node layout:
// {value: word, next: word}.
const LinkedListAsm = `
main:
  # Build list: arena has 5 nodes of 8 bytes. values 1..5, next pointers.
  la t0, arena
  li t1, 0            # i
  li t2, 5
build:
  slli t3, t1, 3      # node offset = i*8
  add t3, t0, t3
  addi t4, t1, 1      # value = i+1
  sw t4, 0(t3)
  addi t5, t1, 1
  beq t5, t2, last
  slli t5, t5, 3
  add t5, t0, t5      # next = &arena[i+1]
  sw t5, 4(t3)
  j bnext
last:
  sw x0, 4(t3)        # next = NULL(0)
bnext:
  addi t1, t1, 1
  blt t1, t2, build

  # Reverse: prev=0, cur=&arena[0]
  li s0, 0            # prev
  la s1, arena        # cur
rev:
  beqz s1, revdone
  lw s2, 4(s1)        # next
  sw s0, 4(s1)        # cur->next = prev
  mv s0, s1           # prev = cur
  mv s1, s2           # cur = next
  j rev
revdone:
  # s0 = new head (was last node, value 5). Walk and sum into s3;
  # also record first value (head) into s4.
  lw s4, 0(s0)
  li s3, 0
walk:
  beqz s0, walkdone
  lw t0, 0(s0)
  add s3, s3, t0
  lw s0, 4(s0)
  j walk
walkdone:
  nop

.data
.align 3
arena: .zero 40
`

func TestLinkedListProgram(t *testing.T) {
	sim := runSrc(t, LinkedListAsm)
	if sim.Exception() != nil {
		t.Fatalf("exception: %v", sim.Exception())
	}
	checkInt(t, sim, "s3", 15) // 1+2+3+4+5
	checkInt(t, sim, "s4", 5)  // head after reversal
}

// PolymorphismAsm models C++-style dynamic dispatch: two "classes" with
// vtables (area methods for rect{w,h} and triangle{w,h}), an array of
// objects with vtable pointers, and a loop that virtually calls area() on
// each and accumulates the result.
const PolymorphismAsm = `
main:
  la s0, objs          # object array: {vtable, w, h} * 4
  li s1, 0             # i
  li s2, 4             # count
  li s3, 0             # total area
vloop:
  slli t0, s1, 2
  slli t1, s1, 3
  add t0, t0, t1       # i*12
  add t0, s0, t0       # &objs[i]
  lw t1, 0(t0)         # vtable pointer
  lw t2, 0(t1)         # method 0: area()
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
  nop

rect_area:             # w*h
  mul a0, a0, a1
  ret

tri_area:              # w*h/2
  mul a0, a0, a1
  srai a0, a0, 1
  ret

.data
.align 2
rect_vtable: .word rect_area
tri_vtable:  .word tri_area
objs:
  .word rect_vtable, 3, 4    # 12
  .word tri_vtable,  6, 4    # 12
  .word rect_vtable, 5, 5    # 25
  .word tri_vtable,  10, 3   # 15
`

func TestPolymorphismProgram(t *testing.T) {
	sim := runSrc(t, PolymorphismAsm)
	if sim.Exception() != nil {
		t.Fatalf("exception: %v", sim.Exception())
	}
	checkInt(t, sim, "s3", 64) // 12+12+25+15
	// Dynamic dispatch exercises indirect jumps: the BTB should see
	// both targets.
	if sim.Report().Predictor.BTBMisses == 0 {
		t.Error("expected BTB misses from first-seen indirect calls")
	}
}

func TestComplexProgramsOnAllWidths(t *testing.T) {
	for _, w := range []int{1, 2, 4, 8} {
		cfg, err := config.WidthPreset(w)
		if err != nil {
			t.Fatal(err)
		}
		sim := runSrcOn(t, cfg, PolymorphismAsm)
		if got := intReg(t, sim, "s3"); got != 64 {
			t.Errorf("width %d: area total = %d, want 64", w, got)
		}
	}
}

func TestCachePolicyDoesNotChangeResults(t *testing.T) {
	for _, pol := range []string{"LRU", "FIFO", "Random"} {
		cfg := config.Default()
		switch pol {
		case "FIFO":
			cfg.Cache.Replacement = 1
		case "Random":
			cfg.Cache.Replacement = 2
		}
		sim := runSrcOn(t, cfg, QuicksortAsm)
		arr, _ := sim.Memory().Lookup("arr")
		v, _ := sim.Memory().ReadRaw(arr.Addr, 4)
		if int32(v) != -50 {
			t.Errorf("policy %s: arr[0] = %d, want -50", pol, int32(v))
		}
	}
}

func TestCacheDisabledStillCorrect(t *testing.T) {
	cfg := config.Default()
	cfg.Cache.Enabled = false
	sim := runSrcOn(t, cfg, QuicksortAsm)
	arr, _ := sim.Memory().Lookup("arr")
	v, _ := sim.Memory().ReadRaw(arr.Addr+4*11, 4)
	if int32(v) != 100 {
		t.Errorf("no-cache: arr[11] = %d, want 100", int32(v))
	}
}

func TestCacheSpeedsUpMemoryHeavyCode(t *testing.T) {
	// Pointer chasing: each load's address depends on the previous load,
	// so memory latency is fully exposed — out-of-order execution cannot
	// hide it. After the first lap the ring lives in the cache.
	src := `
la t0, ring
li t1, 0
li t2, 200
chase:
  lw t0, 0(t0)
  addi t1, t1, 1
  blt t1, t2, chase

.data
.align 4
ring:
  .word n1
n1:
  .word n2
n2:
  .word n3
n3:
  .word ring
`
	with := config.Default()
	without := config.Default()
	without.Cache.Enabled = false
	a := runSrcOn(t, with, src)
	b := runSrcOn(t, without, src)
	if a.Cycle() >= b.Cycle() {
		t.Errorf("cached run took %d cycles, uncached %d — cache should win on reuse",
			a.Cycle(), b.Cycle())
	}
	if a.Report().CacheHitRate < 0.5 {
		t.Errorf("hit rate %.2f, expected > 0.5 on a repeated walk", a.Report().CacheHitRate)
	}
}
