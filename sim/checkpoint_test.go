package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"riscvsim/internal/ckpt"
)

var updateGolden = flag.Bool("update", false, "rewrite golden checkpoint files")

// loopProgram exercises every pipeline structure: data-dependent
// branches, loads, stores, and enough iterations to run for hundreds of
// thousands of cycles.
const loopProgram = `
	li   s0, 0          # outer counter
	li   s1, 200        # outer limit
outer:
	la   t0, data
	li   t1, 0          # index
	li   t2, 256        # element count
	li   s2, 0          # running sum
inner:
	slli t3, t1, 2
	add  t4, t0, t3
	lw   t5, 0(t4)
	bltz t5, skip       # data-dependent branch
	add  s2, s2, t5
	sw   s2, 0(t4)
skip:
	addi t1, t1, 1
	blt  t1, t2, inner
	addi s0, s0, 1
	blt  s0, s1, outer
	ret

.data
data: .zero 1024
`

// newLoopMachine builds the loop machine and fills its array with
// deterministic pseudo-random values derived from seed.
func newLoopMachine(t testing.TB, seed uint64) *Machine {
	t.Helper()
	m, err := NewFromAsm(DefaultConfig(), loopProgram, "")
	if err != nil {
		t.Fatal(err)
	}
	addr, size, ok := m.LookupLabel("data")
	if !ok {
		t.Fatal("no data label")
	}
	buf := make([]byte, size)
	s := seed*0x9E3779B97F4A7C15 + 1
	for i := 0; i < len(buf); i += 4 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		v := uint32(s)
		buf[i], buf[i+1], buf[i+2], buf[i+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	}
	if err := m.WriteMemory(addr, buf); err != nil {
		t.Fatal(err)
	}
	return m
}

// HaltingPrograms halt each way a machine can: by returning, and on an
// exception, whose faulting instruction leaves the ROB without committing
// its destination. Exported for the external tests.
var HaltingPrograms = []string{
	"li a0, 42\nret\n",
	"li a0, 7\nli a1, 0\ndiv a2, a0, a1\naddi a3, a2, 1\nret\n",
	"li t0, -4\nlw t1, 0(t0)\naddi t2, t1, 1\nret\n",
}

// checkpointBytes round-trips a machine through its binary encoding.
func checkpointBytes(t testing.TB, m *Machine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCheckpointRoundTripMidRun(t *testing.T) {
	m := newLoopMachine(t, 7)
	m.StepN(1000) // mid-flight: ROB, windows, LSU and FUs all busy
	if m.Halted() {
		t.Fatal("program halted during warm-up")
	}

	data := checkpointBytes(t, m)
	r, err := Restore(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}

	// The restored machine reports the same state immediately...
	if m.Cycle() != r.Cycle() {
		t.Fatalf("cycle: %d vs %d", m.Cycle(), r.Cycle())
	}
	s1, _ := json.Marshal(m.State(true))
	s2, _ := json.Marshal(r.State(true))
	if !bytes.Equal(s1, s2) {
		t.Error("State differs immediately after restore")
	}
	if !reflect.DeepEqual(m.Report(), r.Report()) {
		t.Error("Report differs immediately after restore")
	}

	// ...and stays byte-identical to the uninterrupted run at every
	// future step, all the way to the halt.
	for i := 0; !m.Halted(); i++ {
		m.Step()
		r.Step()
		if i%1000 == 0 && m.StateHash() != r.StateHash() {
			t.Fatalf("state diverged at cycle %d", m.Cycle())
		}
	}
	if !r.Halted() {
		t.Fatal("restored machine did not halt with the original")
	}
	if !reflect.DeepEqual(m.Report(), r.Report()) {
		t.Error("final Report differs")
	}
	v1, _ := m.IntReg("s2")
	v2, _ := r.IntReg("s2")
	if v1 != v2 {
		t.Errorf("s2: %d vs %d", v1, v2)
	}
}

// TestCheckpointDeterminism is the CI determinism gate: snapshot mid-run,
// restore, and compare per-cycle state hashes for 10k cycles across 3
// seeds. A hash is a digest of the complete checkpoint encoding, so equal
// hashes mean byte-identical machine state.
func TestCheckpointDeterminism(t *testing.T) {
	const cycles = 10_000
	for seed := uint64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			m := newLoopMachine(t, seed)
			m.StepN(2000)
			if m.Halted() {
				t.Fatal("program halted during warm-up")
			}
			r, err := Restore(bytes.NewReader(checkpointBytes(t, m)))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < cycles && !m.Halted(); i++ {
				m.Step()
				r.Step()
				if m.StateHash() != r.StateHash() {
					t.Fatalf("state hash diverged at cycle %d", m.Cycle())
				}
			}
		})
	}
}

func TestCheckpointOfRestoredMachineIsIdentical(t *testing.T) {
	m := newLoopMachine(t, 11)
	m.StepN(1500)
	data := checkpointBytes(t, m)
	r, err := Restore(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, checkpointBytes(t, r)) {
		t.Error("re-encoding a restored machine is not byte-identical")
	}
}

func TestCheckpointPreservesDebugState(t *testing.T) {
	m := newLoopMachine(t, 3)
	if err := m.AddBreakpoint(5); err != nil {
		t.Fatal(err)
	}
	addr, _, _ := m.LookupLabel("data")
	if err := m.AddWatch(addr, 4); err != nil {
		t.Fatal(err)
	}
	m.StepN(100)
	r, err := Restore(bytes.NewReader(checkpointBytes(t, m)))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Sim().Breakpoints(); len(got) != 1 || got[0] != 5 {
		t.Errorf("breakpoints = %v", got)
	}
}

// TestCheckpointGoldenWireFormat pins the binary encoding: any change to
// the layout must bump ckpt.Version and regenerate this file with
// `go test ./sim -run Golden -update`.
func TestCheckpointGoldenWireFormat(t *testing.T) {
	m, err := NewFromAsm(DefaultConfig(), `
	li   t0, 5
loop:
	addi t0, t0, -1
	bne  t0, x0, loop
	ret
`, "")
	if err != nil {
		t.Fatal(err)
	}
	m.StepN(20)
	data := checkpointBytes(t, m)

	golden := filepath.Join("testdata", "checkpoint_v2.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("wire format drifted from golden file (%d vs %d bytes); if intentional, bump ckpt.Version and regenerate with -update",
			len(data), len(want))
	}
	// And the golden stream must still restore.
	if _, err := Restore(bytes.NewReader(want)); err != nil {
		t.Errorf("golden checkpoint does not restore: %v", err)
	}
}

func TestRestoreRejectsBadMagic(t *testing.T) {
	m := newLoopMachine(t, 1)
	data := checkpointBytes(t, m)
	bad := append([]byte(nil), data...)
	copy(bad, "NOPE")
	if _, err := Restore(bytes.NewReader(bad)); !errors.Is(err, ckpt.ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

// TestRestoreRejectsNewerVersion also rejects version 1: a v1 reader would
// skip the CRC.
func TestRestoreRejectsNewerVersion(t *testing.T) {
	data := checkpointBytes(t, newLoopMachine(t, 1))
	for _, v := range []byte{99, 1} {
		bad := bytes.Clone(data)
		bad[4] = v // version varint directly after the 4-byte magic
		if _, err := Restore(bytes.NewReader(bad)); !errors.Is(err, ckpt.ErrVersion) {
			t.Errorf("version %d: err = %v, want ErrVersion", v, err)
		}
	}
}

// flipError is the error the format's read order gives a checkpoint of n
// bytes with byte i flipped and its CRC left alone: the magic, then the
// one-byte version, then the footer varint before the trailer, then the
// CRC over everything else.
func flipError(i, n int) error {
	switch {
	case i < len(ckpt.Magic):
		return ckpt.ErrBadMagic
	case i == len(ckpt.Magic):
		return ckpt.ErrVersion
	case i >= n-ckpt.TrailerLen-5 && i < n-ckpt.TrailerLen:
		return ckpt.ErrTruncated
	default:
		return ckpt.ErrCorrupt
	}
}

// TestRestoreRejectsEveryByteFlip: CRC-32C detects every burst of 32 bits
// or fewer, so no single flipped byte restores, and each fails with the
// error the read order names for its position.
func TestRestoreRejectsEveryByteFlip(t *testing.T) {
	m := newLoopMachine(t, 1)
	m.StepN(1500)
	data := checkpointBytes(t, m)
	bad := bytes.Clone(data)
	for i := range bad {
		bad[i] ^= 0x41
		if _, err := RestoreWith(bad, Assemble); !errors.Is(err, flipError(i, len(bad))) {
			t.Errorf("byte %d of %d flipped: err = %v, want %v", i, len(bad), err, flipError(i, len(bad)))
		}
		bad[i] = data[i]
	}
}

func TestRestoreRejectsTruncatedStream(t *testing.T) {
	m := newLoopMachine(t, 1)
	m.StepN(500)
	data := checkpointBytes(t, m)
	for _, cut := range []int{16, len(data) / 4, len(data) / 2, len(data) - 1} {
		if _, err := Restore(bytes.NewReader(data[:cut])); !errors.Is(err, ckpt.ErrTruncated) {
			t.Errorf("cut at %d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

func TestRestoreRejectsCorruptBody(t *testing.T) {
	m := newLoopMachine(t, 1)
	m.StepN(500)
	data := checkpointBytes(t, m)
	// Truncate mid-body and splice a wrong section tag stream: the decoder
	// must fail with a ckpt sentinel, never panic.
	bad := append([]byte(nil), data[:len(data)/2]...)
	bad = append(bad, bytes.Repeat([]byte{0xFF}, 64)...)
	if _, err := Restore(bytes.NewReader(bad)); err == nil {
		t.Error("corrupt body restored without error")
	}
}
