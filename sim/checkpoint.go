package sim

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"

	"riscvsim/internal/ckpt"
	"riscvsim/internal/config"
)

// Checkpoint/restore: the versioned binary snapshot of a complete machine.
//
// A checkpoint is self-contained: the header carries the architecture
// JSON, the assembly source and the entry point, and the body carries
// every piece of dynamic state — architectural and speculative registers,
// ROB, issue windows, LSU queues, functional units, fetch/branch state,
// cache contents, memory (sparse pages), the statistics ledger — and the
// machine's floor, the oldest state its rewinds start from. A CRC-32C trailer
// covers all of it and is checked before any decoder runs. Restore
// resolves the source to a compiled Program (assembling it, or finding it
// in the caller's cache: RestoreWith), instantiates it and overlays the
// dynamic state, yielding a machine that is cycle-for-cycle deterministic
// with the original. docs/checkpoint.md documents the
// binary layout.

// header size bounds for the decoder.
const (
	maxConfigJSON = 1 << 20 // 1 MiB architecture document
	maxSource     = 8 << 20 // 8 MiB assembly source
)

// Checkpoint serializes the machine's complete state to w in the
// versioned binary snapshot format. The floor section is the machine's
// floor (sealed first if it was written since), empty when that is the
// Program's pristine start. In fast-forward it is the current state: a
// restore resumes in detail, which cannot replay the way here.
func (m *Machine) Checkpoint(w io.Writer) error {
	m.sealFloor()
	floor := m.snaps.floor
	if m.RewindBarrier() > floor.cycle {
		var err error
		if floor, err = capture(m.sim); err != nil {
			return err
		}
	}
	if m.cfgJSON == nil {
		data, err := m.cfg.Export()
		if err != nil {
			return fmt.Errorf("sim: exporting configuration: %w", err)
		}
		m.cfgJSON = data
	}
	sum := ckpt.NewSummer(w)
	bw := bufio.NewWriter(sum)
	cw := ckpt.NewWriter(bw)
	cw.Header()
	cw.Bytes(m.cfgJSON)
	cw.String(m.prog.src)
	cw.Int(m.entry)
	m.sim.EncodeState(cw)
	cw.Section(ckpt.SecFloor)
	cw.Bytes(floor.data)
	cw.Footer()
	if err := cw.Err(); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return sum.WriteTrailer()
}

// Restore rebuilds a machine from a checkpoint stream of at most
// ckpt.MaxStreamLen bytes. The restored machine produces the same State
// and Report as the original at every future step. Decoding failures
// return errors wrapping the ckpt sentinel errors (ErrBadMagic,
// ErrVersion, ErrTruncated, ErrCorrupt), which the server maps onto
// stable API error codes.
func Restore(r io.Reader) (*Machine, error) {
	data, err := io.ReadAll(io.LimitReader(r, ckpt.MaxStreamLen+1))
	if err != nil {
		return nil, err
	}
	if len(data) > ckpt.MaxStreamLen {
		return nil, fmt.Errorf("%w: stream longer than %d bytes", ckpt.ErrCorrupt, ckpt.MaxStreamLen)
	}
	return RestoreWith(data, Assemble)
}

// RestoreWith is Restore from a checkpoint held in memory, with the
// embedded source resolved through assemble instead of assembled afresh:
// a caller holding a cache of Programs passes its lookup, so a checkpoint
// of a program it already runs costs no assembly. data is only read.
func RestoreWith(data []byte, assemble func(src string, mem MemoryConfig) (*Program, error)) (*Machine, error) {
	cr, err := ckpt.Open(data)
	if err != nil {
		return nil, err
	}
	cfgJSON := cr.Bytes(maxConfigJSON)
	src := cr.String(maxSource)
	entry := cr.Int()
	if err := cr.Err(); err != nil {
		return nil, err
	}

	cfg, err := config.Import(cfgJSON)
	if err != nil {
		return nil, fmt.Errorf("%w: embedded configuration: %v", ckpt.ErrCorrupt, err)
	}
	p, err := assemble(src, cfg.Memory)
	if err != nil {
		return nil, fmt.Errorf("%w: embedded source does not assemble: %v", ckpt.ErrCorrupt, err)
	}
	if n := len(p.core.Code().Instructions); entry < 0 || (n > 0 && entry >= n) {
		return nil, fmt.Errorf("%w: entry %d outside code of %d instructions", ckpt.ErrCorrupt, entry, n)
	}
	s, err := p.core.NewSimulation(cfg, entry)
	if err != nil {
		return nil, fmt.Errorf("%w: rebuilding machine: %v", ckpt.ErrCorrupt, err)
	}
	s.DecodeState(cr)
	cr.Section(ckpt.SecFloor)
	floor := cr.Bytes(ckpt.MaxStreamLen)
	cr.End()
	if err := cr.Err(); err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg, prog: p, sim: s, entry: entry}
	if len(floor) > 0 {
		// Decoded once here, so a corrupt floor fails the restore and
		// not the first rewind.
		f, err := m.restore(snapshot{data: floor}, 0)
		if err == nil && (f.Cycle() > s.Cycle() || f.Committed() > s.Committed()) {
			err = fmt.Errorf("it is at cycle %d with %d committed, past the state at cycle %d with %d",
				f.Cycle(), f.Committed(), s.Cycle(), s.Committed())
		}
		if err != nil {
			return nil, fmt.Errorf("%w: floor: %v", ckpt.ErrCorrupt, err)
		}
		m.snaps.floor = snapshot{cycle: f.Cycle(), committed: f.Committed(), data: floor}
	}
	// The header it came with, as it came: the machine re-encodes to the
	// same bytes even from a document Export would have spelled otherwise.
	m.cfgJSON = cfgJSON
	return m, nil
}

// StateHash returns a 64-bit FNV-1a digest of the machine's checkpoint
// encoding. Because the encoding is deterministic and covers the complete
// state, equal hashes mean byte-identical machines; the determinism CI
// gate compares these per cycle between an original and a restored run.
func (m *Machine) StateHash() uint64 {
	h := fnv.New64a()
	// Writing to a hash cannot fail, and the encoder holds no other
	// error source, so the error is structurally nil here.
	_ = m.Checkpoint(h)
	return h.Sum64()
}
