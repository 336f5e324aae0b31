// Package memory implements the simulator's main memory: a 1-D byte array
// with a predefined capacity operating in a transactional mode (paper
// §III-A). Functional blocks that need data generate a Transaction object;
// registering it with the memory populates the transaction's completion
// time, which makes access latencies configurable and gives the GUI
// metadata about in-flight requests.
package memory

import (
	"encoding/binary"
	"fmt"
	"io"

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
// the address, size and (for stores) data; Register populates the timing
// fields.
type Transaction struct {
	// ID is a unique identifier assigned at registration.
	ID uint64
	// Addr is the byte address of the access.
	Addr int
	// Size is the access width in bytes (1, 2, 4 or 8).
	Size int
	// IsStore distinguishes writes from reads.
	IsStore bool
	// Data carries the payload: the value to store, or the loaded value
	// after the transaction completes (little-endian in the low bytes).
	Data uint64
	// IssuedAt is the cycle the transaction was registered.
	IssuedAt uint64
	// FinishAt is the cycle the data becomes available; filled in by the
	// memory system at registration.
	FinishAt uint64
	// HitCache reports whether an L1 cache satisfied the access (set by
	// the cache layer; always false for direct memory access).
	HitCache bool
}

// Port is anything that can service memory transactions: the main memory
// itself or a cache in front of it.
type Port interface {
	// Access services tx, applying its effect and setting timing fields.
	// It returns the cycle at which the transaction completes.
	Access(tx *Transaction, now uint64) (uint64, *fault.Exception)
	// FlushAll writes back any buffered dirty state (used at simulation
	// end so memory dumps reflect program output). It returns the cycle
	// at which the flush completes.
	FlushAll(now uint64) uint64
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

// Main is the simulated main memory.
type Main struct {
	cfg  Config
	data []byte

	pointers  []Pointer
	allocNext int // allocation cursor; starts after the call stack

	nextID uint64

	// Statistics.
	reads        uint64
	writes       uint64
	bytesRead    uint64
	bytesWritten uint64
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
	return &Main{
		cfg:       cfg,
		data:      make([]byte, cfg.Size),
		allocNext: cfg.CallStackSize,
	}
}

// Size returns the memory capacity in bytes.
func (m *Main) Size() int { return len(m.data) }

// Config returns the memory configuration.
func (m *Main) Config() Config { return m.cfg }

// StackPointerInit returns the initial stack pointer value: the bottom of
// the call stack region (the stack grows downward from it).
func (m *Main) StackPointerInit() int { return m.cfg.CallStackSize }

// Pointers returns the registry of named allocations.
func (m *Main) Pointers() []Pointer { return m.pointers }

// checkRange validates an access against the allocated capacity.
func (m *Main) checkRange(addr, size int) *fault.Exception {
	if addr < 0 || size <= 0 || addr+size > len(m.data) {
		return fault.New(fault.InvalidMemoryAccess,
			"access of %d bytes at address %d outside memory of %d bytes",
			size, addr, len(m.data))
	}
	return nil
}

// Access implements Port directly against main memory: the transaction's
// effect is applied and its completion time is set from the configured
// load/store latency.
func (m *Main) Access(tx *Transaction, now uint64) (uint64, *fault.Exception) {
	if exc := m.checkRange(tx.Addr, tx.Size); exc != nil {
		return now, exc
	}
	m.nextID++
	tx.ID = m.nextID
	tx.IssuedAt = now
	if tx.IsStore {
		m.writeRaw(tx.Addr, tx.Size, tx.Data)
		m.writes++
		m.bytesWritten += uint64(tx.Size)
		tx.FinishAt = now + uint64(m.cfg.StoreLatency)
	} else {
		tx.Data = m.readRaw(tx.Addr, tx.Size)
		m.reads++
		m.bytesRead += uint64(tx.Size)
		tx.FinishAt = now + uint64(m.cfg.LoadLatency)
	}
	return tx.FinishAt, nil
}

// FlushAll implements Port; main memory holds no buffered state.
func (m *Main) FlushAll(now uint64) uint64 { return now }

// readRaw returns size little-endian bytes at addr as a uint64.
func (m *Main) readRaw(addr, size int) uint64 {
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(m.data[addr+i]) << (8 * i)
	}
	return v
}

// writeRaw stores the low size bytes of v at addr, little-endian.
func (m *Main) writeRaw(addr, size int, v uint64) {
	for i := 0; i < size; i++ {
		m.data[addr+i] = byte(v >> (8 * i))
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

// WriteTo streams the full memory contents to w (architectural state
// hashing). It implements io.WriterTo.
func (m *Main) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(m.data)
	return int64(n), err
}

// ReadBytes copies n bytes starting at addr. It is a debug/GUI interface
// and bypasses timing.
func (m *Main) ReadBytes(addr, n int) ([]byte, *fault.Exception) {
	if exc := m.checkRange(addr, n); exc != nil {
		return nil, exc
	}
	out := make([]byte, n)
	copy(out, m.data[addr:addr+n])
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
	copy(m.data[addr:], b)
	return nil
}

// ReadWord reads a 32-bit little-endian word, bypassing timing.
func (m *Main) ReadWord(addr int) (uint32, *fault.Exception) {
	if exc := m.checkRange(addr, 4); exc != nil {
		return 0, exc
	}
	return binary.LittleEndian.Uint32(m.data[addr:]), nil
}

// WriteWord writes a 32-bit little-endian word, bypassing timing.
func (m *Main) WriteWord(addr int, v uint32) *fault.Exception {
	if exc := m.checkRange(addr, 4); exc != nil {
		return exc
	}
	binary.LittleEndian.PutUint32(m.data[addr:], v)
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
	if addr+size > len(m.data) {
		return 0, fmt.Errorf("memory: out of memory allocating %d bytes for %q (cursor %d, capacity %d)",
			size, name, m.allocNext, len(m.data))
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

// Stats returns the access counters.
func (m *Main) Stats() Stats {
	return Stats{
		Reads: m.reads, Writes: m.writes,
		BytesRead: m.bytesRead, BytesWritten: m.bytesWritten,
	}
}

// Clone returns an independent copy of the memory: a simulation's working
// copy of a program's image. The allocation registry is written only by
// Allocate, which appends, so the copy shares its entries and is capped:
// an Allocate on either side grows a private array.
func (m *Main) Clone() *Main {
	c := &Main{
		cfg:       m.cfg,
		data:      make([]byte, len(m.data)),
		pointers:  m.pointers[:len(m.pointers):len(m.pointers)],
		allocNext: m.allocNext,
		nextID:    m.nextID,
		reads:     m.reads, writes: m.writes,
		bytesRead: m.bytesRead, bytesWritten: m.bytesWritten,
	}
	copy(c.data, m.data)
	return c
}
