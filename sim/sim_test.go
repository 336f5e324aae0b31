package sim

import (
	"strings"
	"sync"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	m, err := NewFromAsm(DefaultConfig(), `
li a0, 40
addi a0, a0, 2
`, "")
	if err != nil {
		t.Fatal(err)
	}
	m.Run(10_000)
	if !m.Halted() {
		t.Fatal("not halted")
	}
	v, err := m.IntReg("a0")
	if err != nil || v != 42 {
		t.Errorf("a0 = %d, %v", v, err)
	}
	r := m.Report()
	if r.Committed != 2 {
		t.Errorf("committed = %d", r.Committed)
	}
}

// newFromC compiles C source at opt and builds a machine entered at its
// first instruction, where the code generator puts main.
func newFromC(cfg *Config, src string, opt int) (*Machine, error) {
	res, err := CompileC(src, opt)
	if err != nil {
		return nil, err
	}
	p, err := Assemble(res.Assembly, cfg.Memory)
	if err != nil {
		return nil, err
	}
	return p.NewMachine(cfg, "")
}

// preset returns the named architecture preset.
func preset(t testing.TB, name string) *Config {
	t.Helper()
	cfg, ok := Preset(name)
	if !ok {
		t.Fatalf("no preset %q", name)
	}
	return cfg
}

func TestCFlow(t *testing.T) {
	m, err := newFromC(DefaultConfig(), `
int square(int x) { return x * x; }
int main() { return square(7); }`, 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(100_000)
	v, _ := m.IntReg("a0")
	if v != 49 {
		t.Errorf("a0 = %d, want 49", v)
	}
}

func TestBackwardAPI(t *testing.T) {
	m, err := NewFromAsm(DefaultConfig(), "li t0, 1\nli t1, 2\nli t2, 3\n", "")
	if err != nil {
		t.Fatal(err)
	}
	m.StepN(3)
	if err := m.StepBack(); err != nil {
		t.Fatal(err)
	}
	if m.Cycle() != 2 {
		t.Errorf("cycle = %d, want 2", m.Cycle())
	}
	if err := m.GotoCycle(5); err != nil {
		t.Fatal(err)
	}
	if m.Cycle() != 5 && !m.Halted() {
		t.Errorf("cycle = %d, want 5", m.Cycle())
	}
}

func TestRegisterAndMemoryAccess(t *testing.T) {
	m, err := NewFromAsm(DefaultConfig(), `
la t0, buf
lw a0, 0(t0)
.data
buf: .word 99
`, "")
	if err != nil {
		t.Fatal(err)
	}
	addr, size, ok := m.LookupLabel("buf")
	if !ok || size != 4 {
		t.Fatalf("LookupLabel: ok=%v size=%d", ok, size)
	}
	// Overwrite via the memory editor before running.
	if err := m.WriteMemory(addr, []byte{42, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	m.Run(10_000)
	v, _ := m.IntReg("a0")
	if v != 42 {
		t.Errorf("a0 = %d, want 42", v)
	}
	b, err := m.ReadMemory(addr, 4)
	if err != nil || b[0] != 42 {
		t.Errorf("ReadMemory = %v, %v", b, err)
	}
	dump, err := m.HexDump(addr, 16)
	if err != nil || !strings.Contains(dump, "2a") {
		t.Errorf("HexDump = %q, %v", dump, err)
	}
}

func TestSetIntRegBeforeRun(t *testing.T) {
	m, err := NewFromAsm(DefaultConfig(), "add a0, a1, a2\n", "")
	if err != nil {
		t.Fatal(err)
	}
	m.SetIntReg("a1", 30)
	m.SetIntReg("a2", 12)
	m.Run(1000)
	v, _ := m.IntReg("a0")
	if v != 42 {
		t.Errorf("a0 = %d, want 42", v)
	}
}

func TestCompileAndFilter(t *testing.T) {
	res, err := CompileC("int main() { return 3; }", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Assembly, "main:") {
		t.Error("no main label")
	}
	if FilterAssembly(res.Assembly) == "" {
		t.Error("filter produced empty output")
	}
}

func TestPresetsAvailable(t *testing.T) {
	if len(Presets()) < 3 {
		t.Error("expected at least 3 presets")
	}
	for _, w := range []int{1, 2, 4, 8} {
		if _, err := WidthConfig(w); err != nil {
			t.Errorf("WidthConfig(%d): %v", w, err)
		}
	}
}

func TestConfigRoundTripThroughFacade(t *testing.T) {
	cfg := preset(t, "wide4")
	data, err := cfg.Export()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ImportConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != cfg.Name {
		t.Error("round trip changed config")
	}
}

func TestDisassembleAndState(t *testing.T) {
	m, err := NewFromAsm(DefaultConfig(), "main:\n  li a0, 5\n  ret\n", "main")
	if err != nil {
		t.Fatal(err)
	}
	st := m.State(false)
	if st.Cycle != 0 || len(st.IntRegs) != 32 {
		t.Error("initial state wrong")
	}
	// The pipeline panes show each instruction disassembled: li is addi.
	m.Step()
	st = m.State(false)
	if len(st.DecodeBuffer) == 0 || !strings.HasPrefix(st.DecodeBuffer[0].Text, "addi") {
		t.Errorf("decode buffer after one cycle: %+v", st.DecodeBuffer)
	}
}

func TestErrorPaths(t *testing.T) {
	if _, err := NewFromAsm(DefaultConfig(), "bogus\n", ""); err == nil {
		t.Error("bad asm should fail")
	}
	if _, err := NewFromAsm(DefaultConfig(), "nop\n", "missing"); err == nil {
		t.Error("bad entry should fail")
	}
	if _, err := newFromC(DefaultConfig(), "int main( {", 0); err == nil {
		t.Error("bad C should fail")
	}
	m, _ := NewFromAsm(DefaultConfig(), "nop\n", "")
	if _, err := m.IntReg("f5"); err == nil {
		t.Error("IntReg(f5) should fail")
	}
	if _, err := m.FloatReg("x5"); err == nil {
		t.Error("FloatReg(x5) should fail")
	}
}

// Machines share the built-in instruction set and register description
// (defaultSet, defaultRegs), so building and running them from several
// goroutines at once must be race-free and deterministic. The interpreter
// engine evaluates the shared compiled expressions on every instruction.
func TestConcurrentMachinesShareISA(t *testing.T) {
	const src = `
li t0, 20
li a0, 0
fcvt.s.w fa0, t0
loop:
add a0, a0, t0
fadd.s fa0, fa0, fa0
addi t0, t0, -1
bnez t0, loop
`
	run := func() uint64 {
		m, err := NewFromAsm(DefaultConfig(), src, "")
		if err != nil {
			t.Error(err)
			return 0
		}
		m.SetEngineMode(EngineInterpreter)
		m.Run(10_000)
		return m.ArchStateHash()
	}
	want := run()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if got := run(); got != want {
					t.Errorf("concurrent run hashed %#x, serial %#x", got, want)
				}
			}
		}()
	}
	wg.Wait()
}

// TestUnexecutableInstructionRejectedAtBuild: a program with an
// instruction that no unit executes builds no machine, and the error names
// the mnemonic and its line. Such a machine used to spin to the cycle
// limit: an LS unit whose ops misspell "lw" left every store waiting.
func TestUnexecutableInstructionRejectedAtBuild(t *testing.T) {
	const src = "main:\n  li a0, 1\n  sw a0, 0(sp)\n  ret\n"
	typo := DefaultConfig()
	for i := range typo.Units {
		if typo.Units[i].Class == "LS" {
			typo.Units[i].Ops = map[string]int{"lww": 2}
		}
	}
	bogus := DefaultConfig()
	for i := range bogus.Units {
		if bogus.Units[i].Class == "FX" {
			bogus.Units[i].Ops = map[string]int{"bogus": 1}
		}
	}
	for _, tc := range []struct {
		cfg  *Config
		want string
	}{
		{typo, "core: no functional unit executes sw (line 3)"},
		{bogus, "core: no functional unit executes addi (line 2)"},
	} {
		if errs := tc.cfg.Validate(); len(errs) > 0 {
			t.Fatalf("the architecture itself is valid: %v", errs)
		}
		if _, err := NewFromAsm(tc.cfg, src, "main"); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("NewFromAsm: %v, want an error containing %q", err, tc.want)
		}
	}
}

// TestInvalidConfigRejectedAtBuild: an architecture that fails validation
// builds no machine, from source or from an already compiled Program.
func TestInvalidConfigRejectedAtBuild(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ROBSize = 0
	if _, err := NewFromAsm(cfg, "li a0, 1\n", ""); err == nil || !strings.Contains(err.Error(), "invalid configuration") {
		t.Errorf("NewFromAsm on an invalid architecture: %v", err)
	}
	p, err := Assemble("li a0, 1\n", DefaultMemoryConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.NewMachine(cfg, ""); err == nil || !strings.Contains(err.Error(), "invalid configuration") {
		t.Errorf("NewMachine on an invalid architecture: %v", err)
	}
	other := DefaultConfig()
	other.Memory.Size = 32 << 10
	if _, err := p.NewMachine(other, ""); err == nil || !strings.Contains(err.Error(), "assembled for memory") {
		t.Errorf("NewMachine on another memory shape: %v", err)
	}
}
