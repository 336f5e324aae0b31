package sim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"riscvsim/internal/ckpt"
)

// Decoders must stay total for input whose CRC is right: a client can
// recompute it. These tests re-seal edited streams so the edit reaches the
// decoders, then require a typed error or a machine that works.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// reseal rewrites the trailer of an edited checkpoint in place. It
// computes the CRC itself rather than through internal/ckpt, so a bug in
// the format's own check cannot hide here.
func reseal(data []byte) {
	if n := len(data) - ckpt.TrailerLen; n >= 0 {
		binary.LittleEndian.PutUint32(data[n:], crc32.Checksum(data[:n], castagnoli))
	}
}

// sentinels are the errors a restore may fail with.
var sentinels = []error{ckpt.ErrBadMagic, ckpt.ErrVersion, ckpt.ErrTruncated, ckpt.ErrCorrupt}

func isSentinel(err error) bool {
	for _, s := range sentinels {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

// exercise renders a restored machine as a session reply does, steps it
// up to n cycles, and reports and checkpoints it, returning what
// panicked, or nil.
func exercise(m *Machine, n int) (panicked any) {
	defer func() { panicked = recover() }()
	m.State(true)
	for i := 0; i < n && !m.Halted(); i++ {
		m.Step()
	}
	m.Report()
	// Only a panic matters here: an encoder refusing state is an error.
	_ = m.Checkpoint(new(bytes.Buffer))
	return nil
}

// cachedAssemble resolves the source of data's machine without assembling
// it again, and assembles anything else (an edited source or memory).
func cachedAssemble(m *Machine) func(string, MemoryConfig) (*Program, error) {
	return func(src string, mem MemoryConfig) (*Program, error) {
		if src == m.prog.src && mem == m.cfg.Memory {
			return m.prog, nil
		}
		return Assemble(src, mem)
	}
}

// TestResealedFlipsNeverPanic flips every byte of the loop machine's
// checkpoint four ways, at an early and a late cycle, and re-seals each.
// Every flip must fail with the error the read order names for its
// position or restore a machine that steps 300 cycles and checkpoints.
func TestResealedFlipsNeverPanic(t *testing.T) {
	for _, cycle := range []uint64{37, 1500} {
		m := newLoopMachine(t, 1)
		m.StepN(cycle)
		data := checkpointBytes(t, m)
		assemble := cachedAssemble(m)
		for _, x := range []byte{0x01, 0x41, 0x80, 0xFF} {
			t.Run(fmt.Sprintf("cycle%d/xor%02x", cycle, x), func(t *testing.T) {
				t.Parallel()
				var restored, panics atomic.Int64
				bad := bytes.Clone(data)
				for i := range bad {
					bad[i] ^= x
					reseal(bad)
					r, err := RestoreWith(bad, assemble)
					// A flipped body byte may decode; re-sealing undoes a
					// flipped trailer byte.
					switch want := flipError(i, len(bad)); {
					case err == nil && want == ckpt.ErrCorrupt:
						restored.Add(1)
						if p := exercise(r, 300); p != nil && panics.Add(1) <= 5 {
							t.Errorf("byte %d ^ %#02x restores and then panics: %v", i, x, p)
						}
					case !errors.Is(err, want):
						t.Errorf("byte %d ^ %#02x: err = %v, want %v", i, x, err, want)
					}
					copy(bad, data)
				}
				t.Logf("%d bytes: %d flips restore, %d of them panic", len(bad), restored.Load(), panics.Load())
				if panics.Load() > 0 {
					t.Errorf("%d re-sealed flips panic", panics.Load())
				}
			})
		}
	}
}

// FuzzCheckpointDecode feeds re-sealed streams to the decoders. A stream
// either fails with a ckpt sentinel error or restores a machine that
// re-encodes to the same bytes and then steps and checkpoints without
// panicking.
func FuzzCheckpointDecode(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v2.golden"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, cycle := range []uint64{0, 37, 1500} {
		m := newLoopMachine(f, 1)
		m.StepN(cycle)
		f.Add(checkpointBytes(f, m))
	}
	for _, src := range HaltingPrograms {
		halted, err := NewFromAsm(DefaultConfig(), src, "")
		if err != nil {
			f.Fatal(err)
		}
		halted.Run(1000)
		if !halted.Halted() {
			f.Fatalf("seed machine %q did not halt", src)
		}
		f.Add(checkpointBytes(f, halted))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		data = bytes.Clone(data)
		reseal(data)
		m, err := RestoreWith(data, Assemble)
		if err != nil {
			if !isSentinel(err) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		var again bytes.Buffer
		if err := m.Checkpoint(&again); err != nil {
			t.Fatalf("restored machine does not checkpoint: %v", err)
		}
		if got := again.Bytes(); !bytes.Equal(got, data) {
			i := 0
			for i < min(len(got), len(data)) && got[i] == data[i] {
				i++
			}
			t.Fatalf("restored machine re-encodes to %d bytes, first differing from its %d at %d: % x, want % x",
				len(got), len(data), i, got[i:min(i+8, len(got))], data[i:min(i+8, len(data))])
		}
		if p := exercise(m, 300); p != nil {
			t.Fatalf("restored machine panics: %v", p)
		}
	})
}
