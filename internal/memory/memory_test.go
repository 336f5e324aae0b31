package memory

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"riscvsim/internal/fault"
)

func newMem(t *testing.T) *Main {
	t.Helper()
	return New(Config{Size: 4096, LoadLatency: 8, StoreLatency: 6, CallStackSize: 512})
}

func TestStoreLoadRoundTrip(t *testing.T) {
	m := newMem(t)
	tx := &Transaction{Addr: 512, Size: 4, IsStore: true, Data: 0xDEADBEEF}
	finish, exc := m.Access(tx, 100)
	if exc != nil {
		t.Fatalf("store: %v", exc)
	}
	if finish != 106 {
		t.Errorf("store finish = %d, want 106 (now+StoreLatency)", finish)
	}
	rd := &Transaction{Addr: 512, Size: 4}
	finish, exc = m.Access(rd, 110)
	if exc != nil {
		t.Fatalf("load: %v", exc)
	}
	if finish != 118 {
		t.Errorf("load finish = %d, want 118 (now+LoadLatency)", finish)
	}
	if rd.Data != 0xDEADBEEF {
		t.Errorf("loaded %#x, want 0xDEADBEEF", rd.Data)
	}
}

// TestLineTransaction: a transaction carrying a line moves the whole line,
// takes the configured latency and counts as one access of its length.
func TestLineTransaction(t *testing.T) {
	m := newMem(t)
	var st Stats
	m.CountInto(&st)
	line := []byte("sixteen bytes...")
	if finish, exc := m.Access(&Transaction{Addr: 1000, IsStore: true, Line: line}, 10); exc != nil || finish != 16 {
		t.Errorf("line store: finish %d (%v), want 16", finish, exc)
	}
	back := make([]byte, len(line))
	if finish, exc := m.Access(&Transaction{Addr: 1000, Line: back}, 20); exc != nil || finish != 28 {
		t.Errorf("line load: finish %d (%v), want 28", finish, exc)
	}
	if string(back) != string(line) {
		t.Errorf("line load read %q, want %q", back, line)
	}
	if want := (Stats{Reads: 1, Writes: 1, BytesRead: 16, BytesWritten: 16}); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
	if _, exc := m.Access(&Transaction{Addr: 4090, Line: back}, 0); exc == nil {
		t.Error("a line past the end of memory must fault")
	}
	if st.Reads != 1 {
		t.Error("a faulting line transaction must not count")
	}
}

func TestLittleEndianLayout(t *testing.T) {
	m := newMem(t)
	m.Access(&Transaction{Addr: 1024, Size: 4, IsStore: true, Data: 0x04030201}, 0)
	b, exc := m.ReadBytes(1024, 4)
	if exc != nil {
		t.Fatal(exc)
	}
	for i, want := range []byte{1, 2, 3, 4} {
		if b[i] != want {
			t.Errorf("byte %d = %d, want %d", i, b[i], want)
		}
	}
}

func TestSubWordAccess(t *testing.T) {
	m := newMem(t)
	m.Access(&Transaction{Addr: 600, Size: 1, IsStore: true, Data: 0xFF}, 0)
	m.Access(&Transaction{Addr: 601, Size: 1, IsStore: true, Data: 0x7F}, 0)
	rd := &Transaction{Addr: 600, Size: 2}
	m.Access(rd, 0)
	if rd.Data != 0x7FFF {
		t.Errorf("halfword = %#x, want 0x7FFF", rd.Data)
	}
}

func TestOutOfBoundsAccessFaults(t *testing.T) {
	m := newMem(t)
	cases := []Transaction{
		{Addr: -1, Size: 4},
		{Addr: 4096, Size: 1},
		{Addr: 4094, Size: 4},
		{Addr: 0, Size: 0},
	}
	for _, tx := range cases {
		tx := tx
		_, exc := m.Access(&tx, 0)
		if exc == nil || exc.Kind != fault.InvalidMemoryAccess {
			t.Errorf("Access(addr=%d size=%d): exc = %v, want InvalidMemoryAccess",
				tx.Addr, tx.Size, exc)
		}
	}
}

func TestAllocateAlignment(t *testing.T) {
	m := newMem(t)
	a1, err := m.Allocate("x", 5, 1, "byte")
	if err != nil {
		t.Fatal(err)
	}
	if a1 != 512 {
		t.Errorf("first allocation at %d, want 512 (after call stack)", a1)
	}
	a2, err := m.Allocate("arr", 64, 16, "word")
	if err != nil {
		t.Fatal(err)
	}
	if a2%16 != 0 {
		t.Errorf("aligned allocation at %d, not 16-byte aligned", a2)
	}
	if a2 < a1+5 {
		t.Errorf("allocations overlap: %d < %d", a2, a1+5)
	}
}

func TestAllocateOutOfMemory(t *testing.T) {
	m := newMem(t)
	if _, err := m.Allocate("big", 1<<20, 1, "byte"); err == nil {
		t.Error("allocating beyond capacity should fail")
	}
	// A size whose end address overflows int must fail too, and leave
	// the cursor where it was.
	for i := 0; i < 2; i++ {
		if addr, err := m.Allocate("huge", math.MaxInt, 1, "byte"); err == nil {
			t.Fatalf("allocating %d bytes succeeded at %d", math.MaxInt, addr)
		}
	}
	if addr, err := m.Allocate("word", 4, 4, "word"); err != nil || addr < 0 || addr+4 > m.Size() {
		t.Errorf("allocation after the refused ones: %d, %v", addr, err)
	}
}

func TestPointerRegistry(t *testing.T) {
	m := newMem(t)
	addr, _ := m.Allocate("table", 40, 4, "word")
	p, ok := m.Lookup("table")
	if !ok || p.Addr != addr || p.Size != 40 || p.Elem != "word" {
		t.Errorf("Lookup(table) = %+v, ok=%v", p, ok)
	}
	if _, ok := m.Lookup("nope"); ok {
		t.Error("Lookup of unknown name should fail")
	}
	if len(m.Pointers()) != 1 {
		t.Errorf("Pointers() has %d entries, want 1", len(m.Pointers()))
	}
}

func TestStackPointerInit(t *testing.T) {
	m := newMem(t)
	if got := m.StackPointerInit(); got != 512 {
		t.Errorf("StackPointerInit = %d, want 512", got)
	}
}

func TestStatsCounters(t *testing.T) {
	m := newMem(t)
	m.Access(&Transaction{Addr: 0, Size: 4}, 0) // before CountInto: not counted
	var st Stats
	m.CountInto(&st)
	m.Access(&Transaction{Addr: 0, Size: 4, IsStore: true, Data: 1}, 0)
	m.Access(&Transaction{Addr: 0, Size: 4}, 0)
	m.Access(&Transaction{Addr: 0, Size: 2}, 0)
	if st.Writes != 1 || st.Reads != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.BytesWritten != 4 || st.BytesRead != 6 {
		t.Errorf("byte counters = %+v", st)
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := newMem(t)
	m.writeWord(100, 42)
	c := m.Clone()
	m.writeWord(100, 99)
	v, _ := c.readWord(100)
	if v != 42 {
		t.Errorf("clone sees %d, want 42 (must be a deep copy)", v)
	}
}

func TestHexDumpFormat(t *testing.T) {
	m := newMem(t)
	m.WriteBytes(0, []byte("Hello World"))
	dump, err := m.HexDump(0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dump, "Hello World") {
		t.Errorf("hex dump should show printable ASCII:\n%s", dump)
	}
	if !strings.Contains(dump, "00000000") {
		t.Errorf("hex dump should show addresses:\n%s", dump)
	}
}

// Property: a store followed by a load of the same size and address always
// returns the stored value (for in-range addresses).
func TestPropertyStoreLoadConsistency(t *testing.T) {
	m := New(Config{Size: 65536, LoadLatency: 1, StoreLatency: 1, CallStackSize: 0})
	f := func(addrRaw uint16, val uint64, sizeSel uint8) bool {
		size := []int{1, 2, 4, 8}[sizeSel%4]
		addr := int(addrRaw) % (65536 - 8)
		st := &Transaction{Addr: addr, Size: size, IsStore: true, Data: val}
		if _, exc := m.Access(st, 0); exc != nil {
			return false
		}
		ld := &Transaction{Addr: addr, Size: size}
		if _, exc := m.Access(ld, 0); exc != nil {
			return false
		}
		mask := ^uint64(0)
		if size < 8 {
			mask = (uint64(1) << (8 * size)) - 1
		}
		return ld.Data == val&mask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
