// Package isa defines the simulated instruction set architecture: RV32I with
// the M and F extensions (plus a practical subset of D), pseudo-instructions
// and assembler directives, exactly as the paper's simulator supports
// (§III-B).
//
// Following the paper, instruction semantics are *data*, not code: every
// instruction carries a postfix expression (Listing 1, "interpretableAs")
// that the expression interpreter executes. The whole set serializes to
// the paper's JSON document, which /api/v1/instructionDescriptions serves
// read-only.
package isa

import (
	"fmt"

	"riscvsim/internal/expr"
)

// InstrType is the coarse instruction classification used for statistics
// and for routing instructions to issue windows. Values mirror the paper's
// kArithmetic/kLoad/kStore/kJumpbranch JSON tags.
type InstrType uint8

// Instruction classifications.
const (
	TypeArithmetic InstrType = iota // integer and FP computation
	TypeLoad                        // memory read
	TypeStore                       // memory write
	TypeBranch                      // jumps and conditional branches

	// NumInstrTypes is the number of classifications; counters indexed by
	// InstrType use it as their array size. iota-derived so a new type
	// added above can never drift out of sync with it.
	NumInstrTypes = iota
)

var instrTypeNames = [...]string{"kArithmetic", "kLoad", "kStore", "kJumpbranch"}

// String returns the paper-style JSON tag for the type.
func (t InstrType) String() string {
	if int(t) < len(instrTypeNames) {
		return instrTypeNames[t]
	}
	return fmt.Sprintf("kInstrType(%d)", uint8(t))
}

// FUClass identifies which functional-unit family executes an instruction.
// The paper's Architecture Settings window groups units into FX, FP, LS,
// branch and memory categories (§II-C).
type FUClass uint8

// Functional unit classes.
const (
	FX     FUClass = iota // integer ALU
	FP                    // floating-point ALU
	LS                    // load/store address generation
	Branch                // branch resolution

	// NumFUClasses is the number of classes: the core keeps one issue
	// window per class, indexed by FUClass.
	NumFUClasses = iota
)

var fuClassNames = [...]string{"FX", "FP", "LS", "Branch"}

// String returns the display name of the class.
func (c FUClass) String() string {
	if int(c) < len(fuClassNames) {
		return fuClassNames[c]
	}
	return fmt.Sprintf("FUClass(%d)", uint8(c))
}

// ParseFUClass is the inverse of FUClass.String.
func ParseFUClass(s string) (FUClass, error) {
	for i, n := range fuClassNames {
		if n == s {
			return FUClass(i), nil
		}
	}
	return FX, fmt.Errorf("isa: unknown FU class %q", s)
}

// ArgKind says how an assembly operand is written and what it refers to.
type ArgKind uint8

// Operand kinds.
const (
	ArgRegInt   ArgKind = iota // integer register (x0..x31 or ABI alias)
	ArgRegFloat                // floating-point register (f0..f31 or alias)
	ArgImm                     // immediate constant (possibly a label value)
	ArgLabel                   // code label, resolved to a PC-relative offset
)

var argKindNames = [...]string{"regInt", "regFloat", "imm", "label"}

// String returns the JSON tag for the kind.
func (k ArgKind) String() string {
	if int(k) < len(argKindNames) {
		return argKindNames[k]
	}
	return fmt.Sprintf("argKind(%d)", uint8(k))
}

// ArgDesc describes one instruction argument, mirroring the paper's JSON
// argument objects ({"name":"rd","type":"kInt","writeBack":true}).
type ArgDesc struct {
	// Name is the operand name referenced by the expression (rd, rs1, ...).
	Name string
	// Kind says whether the operand is a register, immediate or label.
	Kind ArgKind
	// Type is the operand's data type (kInt, kFloat, ...).
	Type expr.Type
	// WriteBack marks destination operands.
	WriteBack bool
}

// Format enumerates the assembly operand layouts the parser understands.
type Format uint8

// Assembly formats.
const (
	FmtNone   Format = iota // no operands (nop, fence, ecall)
	FmtR                    // rd, rs1, rs2
	FmtR2                   // rd, rs1 (unary: fsqrt, fcvt, fmv)
	FmtR4                   // rd, rs1, rs2, rs3 (fused multiply-add)
	FmtI                    // rd, rs1, imm
	FmtU                    // rd, imm (lui, auipc)
	FmtLoad                 // rd, imm(rs1)
	FmtStore                // rs2, imm(rs1)
	FmtBranch               // rs1, rs2, label
	FmtJ                    // rd, label (jal)
)

var formatNames = [...]string{"none", "r", "r2", "r4", "i", "u", "load", "store", "branch", "j"}

// String returns the JSON tag for the format.
func (f Format) String() string {
	if int(f) < len(formatNames) {
		return formatNames[f]
	}
	return fmt.Sprintf("format(%d)", uint8(f))
}

// Desc is the complete description of one machine instruction. A Desc is
// immutable once registered; dynamic instruction instances reference it.
type Desc struct {
	// Name is the assembly mnemonic ("add", "fmadd.s").
	Name string
	// Type is the coarse classification.
	Type InstrType
	// Unit is the functional-unit class that executes the instruction.
	Unit FUClass
	// Format is the assembly operand layout.
	Format Format
	// Args describes the operands in expression order.
	Args []ArgDesc
	// ExprSrc is the postfix semantics ("interpretableAs" in the paper).
	ExprSrc string
	// Prog is the compiled form of ExprSrc.
	Prog *expr.Program
	// MemWidth is the access size in bytes for loads/stores (0 otherwise).
	MemWidth int
	// MemSigned marks sign-extending loads (lb, lh).
	MemSigned bool
	// Conditional marks conditional branches (beq, ...); unconditional
	// jumps (jal, jalr) have it false.
	Conditional bool
	// PCRelative marks branches whose target is pc+imm; when false the
	// branch target is the value the expression leaves on the stack
	// (jalr).
	PCRelative bool
	// Flops is the number of floating-point operations the instruction
	// contributes to the FLOP counter (2 for fused multiply-add).
	Flops int
	// Halts marks instructions that terminate the simulation (ecall,
	// ebreak — the simulator runs no OS, so an environment call ends the
	// program; documented deviation).
	Halts bool
}

// IsLoad reports whether the instruction reads data memory.
func (d *Desc) IsLoad() bool { return d.Type == TypeLoad }

// IsStore reports whether the instruction writes data memory.
func (d *Desc) IsStore() bool { return d.Type == TypeStore }

// IsBranch reports whether the instruction can redirect control flow.
func (d *Desc) IsBranch() bool { return d.Type == TypeBranch }

// Arg returns the argument descriptor with the given name, or nil.
func (d *Desc) Arg(name string) *ArgDesc {
	for i := range d.Args {
		if d.Args[i].Name == name {
			return &d.Args[i]
		}
	}
	return nil
}

// DestArg returns the (first) write-back argument, or nil for instructions
// with no register destination.
func (d *Desc) DestArg() *ArgDesc {
	for i := range d.Args {
		if d.Args[i].WriteBack {
			return &d.Args[i]
		}
	}
	return nil
}

// Set is a complete instruction set: descriptors indexed by mnemonic plus
// pseudo-instruction expansion rules.
type Set struct {
	byName  map[string]*Desc
	ordered []*Desc
	pseudos map[string]*Pseudo
}

// NewSet returns an empty instruction set.
func NewSet() *Set {
	return &Set{
		byName:  make(map[string]*Desc),
		pseudos: make(map[string]*Pseudo),
	}
}

// Register adds a descriptor to the set, compiling its expression. It
// panics on duplicate names or malformed expressions; the built-in tables
// are validated by tests.
func (s *Set) Register(d *Desc) *Desc {
	if _, dup := s.byName[d.Name]; dup {
		panic(fmt.Sprintf("isa: duplicate instruction %q", d.Name))
	}
	if d.Prog == nil {
		d.Prog = expr.MustCompile(d.ExprSrc)
	}
	s.byName[d.Name] = d
	s.ordered = append(s.ordered, d)
	return d
}

// Lookup returns the descriptor for a mnemonic.
func (s *Set) Lookup(name string) (*Desc, bool) {
	d, ok := s.byName[name]
	return d, ok
}

// Pseudo returns the pseudo-instruction expansion rule for a mnemonic.
func (s *Set) Pseudo(name string) (*Pseudo, bool) {
	p, ok := s.pseudos[name]
	return p, ok
}

// All returns the descriptors in registration order. The slice must not be
// modified.
func (s *Set) All() []*Desc { return s.ordered }

// Pseudo is a pseudo-instruction expansion rule: a template whose operand
// placeholders $0, $1, ... are substituted with the written operands.
type Pseudo struct {
	// Name is the pseudo mnemonic.
	Name string
	// Operands is how many operands the written form takes.
	Operands int
	// Expansion is a list of replacement instructions; each element is a
	// mnemonic followed by operand templates ($N substitutes operand N).
	Expansion [][]string
}

// RegisterPseudo adds an expansion rule, panicking on duplicates.
func (s *Set) RegisterPseudo(p *Pseudo) {
	if _, dup := s.pseudos[p.Name]; dup {
		panic(fmt.Sprintf("isa: duplicate pseudo-instruction %q", p.Name))
	}
	if _, clash := s.byName[p.Name]; clash {
		panic(fmt.Sprintf("isa: pseudo-instruction %q clashes with a real instruction", p.Name))
	}
	s.pseudos[p.Name] = p
}

// RV32IMF builds the default instruction set: RV32I + M + F and a practical
// subset of D, plus the standard pseudo-instructions. The set is freshly
// allocated so callers may extend it without affecting others.
func RV32IMF() *Set {
	s := NewSet()
	registerRV32I(s)
	registerRV32M(s)
	registerRV32F(s)
	registerRV32D(s)
	registerPseudos(s)
	return s
}
