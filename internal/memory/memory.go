// Package memory implements the simulator's main memory: a 1-D byte array
// with a predefined capacity operating in a transactional mode (paper
// §III-A). Functional blocks that need data generate a Transaction object;
// registering it with the memory (Main.Access) returns the transaction's
// completion time, which makes access latencies configurable.
package memory

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"unsafe"

	"riscvsim/internal/fault"
)

// Config holds the memory parameters from the Architecture Settings
// "Memory" tab (paper §II-C).
type Config struct {
	// Size is the memory capacity in bytes.
	Size int
	// LoadLatency is the cycle count for a read to complete.
	LoadLatency int
	// StoreLatency is the cycle count for a write to complete.
	StoreLatency int
	// CallStackSize is the byte size reserved for the call stack at the
	// beginning of memory (paper §III-C).
	CallStackSize int
}

// DefaultConfig returns the memory configuration used by the preset
// architectures.
func DefaultConfig() Config {
	return Config{
		Size:          64 * 1024,
		LoadLatency:   8,
		StoreLatency:  8,
		CallStackSize: 4 * 1024,
	}
}

// Transaction represents one memory request. The requesting block fills in
// the address, size and (for stores) data, or a whole line to move;
// Access applies it and returns when it completes.
type Transaction struct {
	// Addr is the byte address of the access.
	Addr int
	// Size is the access width in bytes (1, 2, 4 or 8).
	Size int
	// IsStore distinguishes writes from reads.
	IsStore bool
	// Data carries the payload: the value to store, or the loaded value
	// after the transaction completes (little-endian in the low bytes).
	Data uint64
	// Line, when set, is a cache line the transaction moves whole in
	// place of Size and Data: a store writes it to memory, a load fills
	// it from memory. Its length is the access width.
	Line []byte
}

// Pointer describes one named allocation for the GUI's memory window
// (paper Fig. 2: "allocated arrays, their starting addresses").
type Pointer struct {
	// Name is the label the program uses to reference the allocation.
	Name string
	// Addr is the starting byte address.
	Addr int
	// Size is the allocation size in bytes.
	Size int
	// Elem is a display tag for the element type ("word", "byte", ...).
	Elem string
}

// pageSize is the granularity of copy-on-write sharing, and of the sparse
// checkpoint encoding (checkpoint.go).
const (
	pageShift = 10
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

type page [pageSize]byte

// zeroPage backs every page nobody has written. Memories share it and
// never own it, so it is never written.
var zeroPage page

// Main is the simulated main memory.
type Main struct {
	cfg  Config
	size int
	// pages holds the contents, pageSize bytes each (the last one may
	// extend past size; those bytes stay zero). A page m does not own is
	// shared — with a clone, the image it was cloned from, or zeroPage —
	// and is copied before m first writes it, so a memory costs the pages
	// it writes.
	pages []*page
	owned []bool

	pointers  []Pointer
	allocNext int // allocation cursor; starts after the call stack

	// stats is the memory's slot of its simulation's statistics ledger;
	// nil (an image, or a memory no simulation counts) counts nothing.
	stats *Stats
}

// New allocates a memory of the configured size. The call stack occupies
// [0, CallStackSize); static data is allocated after it (paper §III-C).
func New(cfg Config) *Main {
	if cfg.Size <= 0 {
		cfg.Size = DefaultConfig().Size
	}
	if cfg.CallStackSize < 0 || cfg.CallStackSize > cfg.Size {
		cfg.CallStackSize = cfg.Size / 4
	}
	n := (cfg.Size + pageSize - 1) / pageSize
	m := &Main{
		cfg:       cfg,
		size:      cfg.Size,
		pages:     make([]*page, n),
		owned:     make([]bool, n),
		allocNext: cfg.CallStackSize,
	}
	for i := range m.pages {
		m.pages[i] = &zeroPage
	}
	return m
}

// Size returns the memory capacity in bytes.
func (m *Main) Size() int { return m.size }

// Config returns the memory configuration.
func (m *Main) Config() Config { return m.cfg }

// StackPointerInit returns the initial stack pointer value: the bottom of
// the call stack region (the stack grows downward from it).
func (m *Main) StackPointerInit() int { return m.cfg.CallStackSize }

// Pointers returns the registry of named allocations.
func (m *Main) Pointers() []Pointer { return m.pointers }

// checkRange validates an access against the allocated capacity.
func (m *Main) checkRange(addr, size int) *fault.Exception {
	if addr < 0 || size <= 0 || addr+size > m.size {
		return fault.New(fault.InvalidMemoryAccess,
			"access of %d bytes at address %d outside memory of %d bytes",
			size, addr, m.size)
	}
	return nil
}

// writable returns page i for writing, first copying it if m does not own
// it.
func (m *Main) writable(i int) *page {
	if !m.owned[i] {
		p := new(page)
		*p = *m.pages[i]
		m.pages[i], m.owned[i] = p, true
	}
	return m.pages[i]
}

// pageLen returns how many bytes of page i lie inside the memory.
func (m *Main) pageLen(i int) int {
	return min(pageSize, m.size-i*pageSize)
}

// RetainedBytes returns what m keeps alive: its page table and every page
// other than the shared zero page, whether m owns it or shares it.
func (m *Main) RetainedBytes() int {
	n := len(m.pages) * int(unsafe.Sizeof(&zeroPage)+unsafe.Sizeof(true))
	for _, p := range m.pages {
		if p != &zeroPage {
			n += pageSize
		}
	}
	return n
}

// Freeze gives up ownership of every page: m keeps its contents, and its
// next write to a page copies it first. Freezing a frozen memory writes
// nothing, and neither do Clone and the read paths of a frozen memory, so
// any number of goroutines may clone it concurrently (a Program's image).
func (m *Main) Freeze() {
	for i, own := range m.owned {
		if own {
			m.owned[i] = false
		}
	}
}

// Access applies tx and returns the cycle it completes, after the
// configured load or store latency. It is the one timed, counted way in:
// every access the L1 passes on and every line it moves count here.
func (m *Main) Access(tx *Transaction, now uint64) (uint64, *fault.Exception) {
	size := tx.Size
	if tx.Line != nil {
		size = len(tx.Line)
	}
	if exc := m.checkRange(tx.Addr, size); exc != nil {
		return now, exc
	}
	switch {
	case tx.Line != nil:
		m.moveLine(tx.Addr, tx.Line, tx.IsStore)
	case tx.IsStore:
		m.writeRaw(tx.Addr, size, tx.Data)
	default:
		tx.Data = m.readRaw(tx.Addr, size)
	}
	st := m.stats
	if tx.IsStore {
		if st != nil {
			st.Writes++
			st.BytesWritten += uint64(size)
		}
		return now + uint64(m.cfg.StoreLatency), nil
	}
	if st != nil {
		st.Reads++
		st.BytesRead += uint64(size)
	}
	return now + uint64(m.cfg.LoadLatency), nil
}

// readRaw returns size little-endian bytes at addr as a uint64. An access
// within one page (every aligned one) loads that page once.
func (m *Main) readRaw(addr, size int) uint64 {
	if off := addr & pageMask; off+size <= pageSize {
		p := m.pages[addr>>pageShift]
		switch size {
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:]))
		case 1:
			return uint64(p[off])
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:]))
		case 8:
			return binary.LittleEndian.Uint64(p[off:])
		}
	}
	var v uint64
	for i := 0; i < size; i++ {
		a := addr + i
		v |= uint64(m.pages[a>>pageShift][a&pageMask]) << (8 * i)
	}
	return v
}

// writeRaw stores the low size bytes of v at addr, little-endian. An
// access within one page checks its ownership once.
func (m *Main) writeRaw(addr, size int, v uint64) {
	if off := addr & pageMask; off+size <= pageSize {
		p := m.writable(addr >> pageShift)
		switch size {
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(v))
			return
		case 1:
			p[off] = byte(v)
			return
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(v))
			return
		case 8:
			binary.LittleEndian.PutUint64(p[off:], v)
			return
		}
	}
	for i := 0; i < size; i++ {
		a := addr + i
		m.writable(a >> pageShift)[a&pageMask] = byte(v >> (8 * i))
	}
}

// ReadRaw returns size little-endian bytes at addr as a uint64, bypassing
// timing and access statistics — the fast-forward functional engine's
// memory interface (core/blockplan.go). Bounds are checked; callers that
// already validated the access may discard the exception.
func (m *Main) ReadRaw(addr, size int) (uint64, *fault.Exception) {
	if exc := m.checkRange(addr, size); exc != nil {
		return 0, exc
	}
	return m.readRaw(addr, size), nil
}

// WriteRaw stores the low size bytes of v at addr little-endian, bypassing
// timing and access statistics (fast-forward functional engine).
func (m *Main) WriteRaw(addr, size int, v uint64) *fault.Exception {
	if exc := m.checkRange(addr, size); exc != nil {
		return exc
	}
	m.writeRaw(addr, size, v)
	return nil
}

// WriteTo streams the full memory contents to w, page by page
// (architectural state hashing). It implements io.WriterTo.
func (m *Main) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for i, p := range m.pages {
		k, err := w.Write(p[:m.pageLen(i)])
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// moveLine copies b to memory at addr when store is set, else from it;
// the caller has range-checked the span.
func (m *Main) moveLine(addr int, b []byte, store bool) {
	for n := 0; len(b) > 0; b, addr = b[n:], addr+n {
		if store {
			n = copy(m.writable(addr >> pageShift)[addr&pageMask:], b)
		} else {
			n = copy(b, m.pages[addr>>pageShift][addr&pageMask:])
		}
	}
}

// ReadBytes copies n bytes starting at addr. It is a debug/GUI interface
// and bypasses timing.
func (m *Main) ReadBytes(addr, n int) ([]byte, *fault.Exception) {
	if exc := m.checkRange(addr, n); exc != nil {
		return nil, exc
	}
	out := make([]byte, n)
	m.moveLine(addr, out, false)
	return out, nil
}

// WriteBytes stores b at addr, bypassing timing (program loading, memory
// editor).
func (m *Main) WriteBytes(addr int, b []byte) *fault.Exception {
	if len(b) == 0 {
		return nil
	}
	if exc := m.checkRange(addr, len(b)); exc != nil {
		return exc
	}
	m.moveLine(addr, b, true)
	return nil
}

// Allocate reserves size bytes aligned to align (a power of two or 1),
// registers the allocation under name, and returns its address. It
// implements the static allocation performed between the assembler's two
// passes (paper §III-C).
func (m *Main) Allocate(name string, size, align int, elem string) (int, error) {
	if size < 0 {
		return 0, fmt.Errorf("memory: negative allocation size %d for %q", size, name)
	}
	if align < 1 {
		align = 1
	}
	addr := (m.allocNext + align - 1) &^ (align - 1)
	// Compared as room left, not as an end address: addr+size can
	// overflow.
	if size > m.size-addr {
		return 0, fmt.Errorf("memory: out of memory allocating %d bytes for %q (cursor %d, capacity %d)",
			size, name, m.allocNext, m.size)
	}
	m.allocNext = addr + size
	m.pointers = append(m.pointers, Pointer{Name: name, Addr: addr, Size: size, Elem: elem})
	return addr, nil
}

// Lookup returns the named allocation.
func (m *Main) Lookup(name string) (Pointer, bool) {
	for _, p := range m.pointers {
		if p.Name == name {
			return p, true
		}
	}
	return Pointer{}, false
}

// Stats reports access counters for the statistics window.
type Stats struct {
	Reads        uint64 `json:"reads"`
	Writes       uint64 `json:"writes"`
	BytesRead    uint64 `json:"bytesRead"`
	BytesWritten uint64 `json:"bytesWritten"`
}

// CountInto makes m count its accesses into st from now on.
func (m *Main) CountInto(st *Stats) { m.stats = st }

// Clone returns an independent copy of the memory: a simulation's working
// copy of a program's image. It copies the page table, not the pages: both
// sides share them and copy a page before writing it (Freeze). The
// allocation registry is written only by Allocate, which appends, so the
// copy shares its entries and is capped: an Allocate on either side grows
// a private array. The copy counts nothing until CountInto.
func (m *Main) Clone() *Main {
	m.Freeze()
	return &Main{
		cfg:       m.cfg,
		size:      m.size,
		pages:     slices.Clone(m.pages),
		owned:     make([]bool, len(m.owned)),
		pointers:  m.pointers[:len(m.pointers):len(m.pointers)],
		allocNext: m.allocNext,
	}
}
