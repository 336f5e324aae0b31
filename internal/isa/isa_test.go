package isa

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

func TestRV32IMFBuilds(t *testing.T) {
	s := RV32IMF()
	if n := len(s.All()); n < 80 {
		t.Errorf("instruction set has %d instructions, expected at least 80", n)
	}
	if len(s.pseudos) < 25 {
		t.Errorf("only %d pseudo-instructions registered", len(s.pseudos))
	}
}

func TestEveryInstructionHasCompiledExpression(t *testing.T) {
	for _, d := range RV32IMF().All() {
		if d.Prog == nil {
			t.Errorf("%s: expression not compiled", d.Name)
		}
	}
}

func TestBaseInstructionsPresent(t *testing.T) {
	s := RV32IMF()
	base := []string{
		"lui", "auipc", "jal", "jalr",
		"beq", "bne", "blt", "bge", "bltu", "bgeu",
		"lb", "lh", "lw", "lbu", "lhu", "sb", "sh", "sw",
		"addi", "slti", "sltiu", "xori", "ori", "andi", "slli", "srli", "srai",
		"add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and",
		"fence", "ecall", "ebreak",
		"mul", "mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu",
		"flw", "fsw", "fadd.s", "fsub.s", "fmul.s", "fdiv.s", "fsqrt.s",
		"fmadd.s", "fmsub.s", "fnmadd.s", "fnmsub.s",
		"fsgnj.s", "fsgnjn.s", "fsgnjx.s", "fmin.s", "fmax.s",
		"fcvt.w.s", "fcvt.wu.s", "fcvt.s.w", "fcvt.s.wu",
		"fmv.x.w", "fmv.w.x", "feq.s", "flt.s", "fle.s", "fclass.s",
		"fld", "fsd", "fadd.d", "fsub.d", "fmul.d", "fdiv.d",
	}
	for _, name := range base {
		if _, ok := s.Lookup(name); !ok {
			t.Errorf("missing instruction %q", name)
		}
	}
}

func TestInstructionClassification(t *testing.T) {
	s := RV32IMF()
	cases := []struct {
		name string
		typ  InstrType
		unit FUClass
	}{
		{"add", TypeArithmetic, FX},
		{"lw", TypeLoad, LS},
		{"sw", TypeStore, LS},
		{"beq", TypeBranch, Branch},
		{"jal", TypeBranch, Branch},
		{"fadd.s", TypeArithmetic, FP},
		{"flw", TypeLoad, LS},
		{"mul", TypeArithmetic, FX},
	}
	for _, c := range cases {
		d, ok := s.Lookup(c.name)
		if !ok {
			t.Fatalf("missing %q", c.name)
		}
		if d.Type != c.typ {
			t.Errorf("%s: type %v, want %v", c.name, d.Type, c.typ)
		}
		if d.Unit != c.unit {
			t.Errorf("%s: unit %v, want %v", c.name, d.Unit, c.unit)
		}
	}
}

func TestLoadStoreWidths(t *testing.T) {
	s := RV32IMF()
	widths := map[string]struct {
		w      int
		signed bool
	}{
		"lb": {1, true}, "lbu": {1, false},
		"lh": {2, true}, "lhu": {2, false},
		"lw": {4, true},
		"sb": {1, false}, "sh": {2, false}, "sw": {4, false},
		"flw": {4, false}, "fsw": {4, false},
		"fld": {8, false}, "fsd": {8, false},
	}
	for name, want := range widths {
		d, _ := s.Lookup(name)
		if d == nil {
			t.Fatalf("missing %q", name)
		}
		if d.MemWidth != want.w || d.MemSigned != want.signed {
			t.Errorf("%s: width=%d signed=%v, want width=%d signed=%v",
				name, d.MemWidth, d.MemSigned, want.w, want.signed)
		}
	}
}

func TestBranchFlags(t *testing.T) {
	s := RV32IMF()
	beq, _ := s.Lookup("beq")
	if !beq.Conditional || !beq.PCRelative {
		t.Error("beq should be conditional and PC-relative")
	}
	jal, _ := s.Lookup("jal")
	if jal.Conditional || !jal.PCRelative {
		t.Error("jal should be unconditional and PC-relative")
	}
	jalr, _ := s.Lookup("jalr")
	if jalr.Conditional || jalr.PCRelative {
		t.Error("jalr should be unconditional with an expression-computed target")
	}
}

func TestHaltingInstructions(t *testing.T) {
	s := RV32IMF()
	for _, name := range []string{"ecall", "ebreak"} {
		d, _ := s.Lookup(name)
		if !d.Halts {
			t.Errorf("%s should halt the simulation", name)
		}
	}
	add, _ := s.Lookup("add")
	if add.Halts {
		t.Error("add must not halt")
	}
}

func TestFlopAccounting(t *testing.T) {
	s := RV32IMF()
	cases := map[string]int{
		"add": 0, "fadd.s": 1, "fmadd.s": 2, "fsgnj.s": 0, "fdiv.d": 1,
	}
	for name, want := range cases {
		d, _ := s.Lookup(name)
		if d.Flops != want {
			t.Errorf("%s: flops=%d, want %d", name, d.Flops, want)
		}
	}
}

func TestDestArg(t *testing.T) {
	s := RV32IMF()
	add, _ := s.Lookup("add")
	if dst := add.DestArg(); dst == nil || dst.Name != "rd" {
		t.Error("add's destination should be rd")
	}
	sw, _ := s.Lookup("sw")
	if dst := sw.DestArg(); dst != nil {
		t.Errorf("sw should have no register destination, got %q", dst.Name)
	}
	beq, _ := s.Lookup("beq")
	if dst := beq.DestArg(); dst != nil {
		t.Errorf("beq should have no destination, got %q", dst.Name)
	}
}

func TestExpressionWritesMatchWriteBackArgs(t *testing.T) {
	// Invariant: every operand assigned by the expression is declared
	// WriteBack, and vice versa. Loads are exempt: their expression only
	// computes the address and the memory unit writes rd.
	for _, d := range RV32IMF().All() {
		// `\name =` assigns the operand name: `=` pops its target
		// reference last.
		written := map[string]bool{}
		fields := strings.Fields(d.ExprSrc)
		for i, f := range fields {
			if f == "=" && i > 0 && strings.HasPrefix(fields[i-1], `\`) {
				written[fields[i-1][1:]] = true
			}
		}
		for _, a := range d.Args {
			if a.WriteBack && !written[a.Name] && d.ExprSrc != "" && !d.IsLoad() {
				t.Errorf("%s: arg %s is WriteBack but never assigned by %q",
					d.Name, a.Name, d.ExprSrc)
			}
			if !a.WriteBack && written[a.Name] {
				t.Errorf("%s: arg %s is assigned by expression but not WriteBack",
					d.Name, a.Name)
			}
		}
	}
}

func TestRegisterFileAliases(t *testing.T) {
	rf := NewRegisterFile()
	cases := map[string]struct {
		idx   int
		class RegClass
	}{
		"x0": {0, RegInt}, "zero": {0, RegInt},
		"ra": {1, RegInt}, "sp": {2, RegInt},
		"s0": {8, RegInt}, "fp": {8, RegInt},
		"a0": {10, RegInt}, "t6": {31, RegInt},
		"f0": {0, RegFloat}, "ft0": {0, RegFloat},
		"fa0": {10, RegFloat}, "ft11": {31, RegFloat},
		"A0": {10, RegInt}, // case-insensitive
	}
	for name, want := range cases {
		d, ok := rf.Lookup(name)
		if !ok {
			t.Errorf("Lookup(%q) failed", name)
			continue
		}
		if d.Index != want.idx || d.Class != want.class {
			t.Errorf("Lookup(%q) = %s[%d], want class=%v idx=%d",
				name, d.Class, d.Index, want.class, want.idx)
		}
	}
	if _, ok := rf.Lookup("x32"); ok {
		t.Error("x32 should not resolve")
	}
	if !rf.Int(0).ReadOnly {
		t.Error("x0 must be read-only")
	}
	if rf.Int(1).ReadOnly {
		t.Error("x1 must be writable")
	}
}

func TestPseudoExpansionsResolve(t *testing.T) {
	// Invariant: every pseudo expansion refers to a real instruction.
	s := RV32IMF()
	for name := range s.pseudos {
		p, _ := s.Pseudo(name)
		for _, exp := range p.Expansion {
			if len(exp) == 0 {
				t.Errorf("pseudo %s: empty expansion", name)
				continue
			}
			if _, ok := s.Lookup(exp[0]); !ok {
				t.Errorf("pseudo %s expands to unknown instruction %q", name, exp[0])
			}
		}
	}
}

// TestJSONRoundTrip: the Listing 1 document /api/v1/instructionDescriptions
// serves decodes back to every field of every descriptor and pseudo.
func TestJSONRoundTrip(t *testing.T) {
	s := RV32IMF()
	data, err := s.MarshalJSON()
	if err != nil {
		t.Fatalf("MarshalJSON: %v", err)
	}
	var doc jsonSet
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Instructions) != len(s.All()) || len(doc.Pseudos) != len(s.pseudos) {
		t.Fatalf("document has %d instructions and %d pseudos, set %d and %d",
			len(doc.Instructions), len(doc.Pseudos), len(s.All()), len(s.pseudos))
	}
	for i, d := range s.All() {
		jd := doc.Instructions[i]
		if jd.Name != d.Name || jd.InstructionType != d.Type.String() || jd.Unit != d.Unit.String() ||
			jd.Format != d.Format.String() || jd.InterpretableAs != d.ExprSrc ||
			jd.MemoryWidth != d.MemWidth || jd.MemorySigned != d.MemSigned ||
			jd.Conditional != d.Conditional || jd.PCRelative != d.PCRelative ||
			jd.Flops != d.Flops || jd.Halts != d.Halts || len(jd.Arguments) != len(d.Args) {
			t.Errorf("instruction %d: document %+v does not match %q", i, jd, d.Name)
			continue
		}
		for j, a := range d.Args {
			if ja := jd.Arguments[j]; ja != (jsonArg{Name: a.Name, Kind: a.Kind.String(), Type: a.Type.String(), WriteBack: a.WriteBack}) {
				t.Errorf("%s argument %d: document %+v", d.Name, j, ja)
			}
		}
	}
	for _, jp := range doc.Pseudos {
		p, ok := s.Pseudo(jp.Name)
		if !ok || jp.Operands != p.Operands || !slices.EqualFunc(jp.Expansion, p.Expansion, slices.Equal) {
			t.Errorf("pseudo %q: document %+v", jp.Name, jp)
		}
	}
}
