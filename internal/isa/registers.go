package isa

import (
	"fmt"
	"strings"

	"riscvsim/internal/expr"
)

// RegClass separates the integer and floating-point register files.
type RegClass uint8

// Register file classes.
const (
	RegInt   RegClass = iota // x0..x31
	RegFloat                 // f0..f31
)

// String names the class.
func (c RegClass) String() string {
	if c == RegInt {
		return "int"
	}
	return "float"
}

// NumRegs is the number of architectural registers per file.
const NumRegs = 32

// RegisterDesc describes one architectural register: its canonical name,
// ABI aliases, and any hardwired behaviour (x0). This mirrors the paper's
// "register definitions" loaded at simulation init (§III-A).
type RegisterDesc struct {
	// Name is the canonical name ("x5", "f12").
	Name string
	// Index is the register number within its file.
	Index int
	// Class selects the register file.
	Class RegClass
	// Aliases are the ABI names ("t0", "fa2"); writes through any alias hit
	// the same register.
	Aliases []string
	// ReadOnly marks x0, which ignores writes and always reads zero.
	ReadOnly bool
	// Type is the default data-type tag for GUI display.
	Type expr.Type
}

// intAliases maps register index to ABI alias for the integer file.
var intAliases = [NumRegs][]string{
	0:  {"zero"},
	1:  {"ra"},
	2:  {"sp"},
	3:  {"gp"},
	4:  {"tp"},
	5:  {"t0"},
	6:  {"t1"},
	7:  {"t2"},
	8:  {"s0", "fp"},
	9:  {"s1"},
	10: {"a0"},
	11: {"a1"},
	12: {"a2"},
	13: {"a3"},
	14: {"a4"},
	15: {"a5"},
	16: {"a6"},
	17: {"a7"},
	18: {"s2"},
	19: {"s3"},
	20: {"s4"},
	21: {"s5"},
	22: {"s6"},
	23: {"s7"},
	24: {"s8"},
	25: {"s9"},
	26: {"s10"},
	27: {"s11"},
	28: {"t3"},
	29: {"t4"},
	30: {"t5"},
	31: {"t6"},
}

var floatAliases = [NumRegs][]string{
	0:  {"ft0"},
	1:  {"ft1"},
	2:  {"ft2"},
	3:  {"ft3"},
	4:  {"ft4"},
	5:  {"ft5"},
	6:  {"ft6"},
	7:  {"ft7"},
	8:  {"fs0"},
	9:  {"fs1"},
	10: {"fa0"},
	11: {"fa1"},
	12: {"fa2"},
	13: {"fa3"},
	14: {"fa4"},
	15: {"fa5"},
	16: {"fa6"},
	17: {"fa7"},
	18: {"fs2"},
	19: {"fs3"},
	20: {"fs4"},
	21: {"fs5"},
	22: {"fs6"},
	23: {"fs7"},
	24: {"fs8"},
	25: {"fs9"},
	26: {"fs10"},
	27: {"fs11"},
	28: {"ft8"},
	29: {"ft9"},
	30: {"ft10"},
	31: {"ft11"},
}

// RegisterFile is the static description of both register files with alias
// resolution.
type RegisterFile struct {
	ints   [NumRegs]RegisterDesc
	floats [NumRegs]RegisterDesc
	byName map[string]*RegisterDesc
}

// NewRegisterFile builds the standard RV32 register description.
func NewRegisterFile() *RegisterFile {
	rf := &RegisterFile{byName: make(map[string]*RegisterDesc, NumRegs*4)}
	for i := 0; i < NumRegs; i++ {
		rf.ints[i] = RegisterDesc{
			Name:     fmt.Sprintf("x%d", i),
			Index:    i,
			Class:    RegInt,
			Aliases:  intAliases[i],
			ReadOnly: i == 0,
			Type:     expr.Int,
		}
		rf.floats[i] = RegisterDesc{
			Name:    fmt.Sprintf("f%d", i),
			Index:   i,
			Class:   RegFloat,
			Aliases: floatAliases[i],
			Type:    expr.Float,
		}
	}
	for i := 0; i < NumRegs; i++ {
		rf.byName[rf.ints[i].Name] = &rf.ints[i]
		for _, a := range rf.ints[i].Aliases {
			rf.byName[a] = &rf.ints[i]
		}
		rf.byName[rf.floats[i].Name] = &rf.floats[i]
		for _, a := range rf.floats[i].Aliases {
			rf.byName[a] = &rf.floats[i]
		}
	}
	return rf
}

// Lookup resolves a register name or ABI alias (case-insensitive) to its
// descriptor.
func (rf *RegisterFile) Lookup(name string) (*RegisterDesc, bool) {
	d, ok := rf.byName[strings.ToLower(name)]
	return d, ok
}

// Int returns the descriptor for integer register i.
func (rf *RegisterFile) Int(i int) *RegisterDesc { return &rf.ints[i] }

// Float returns the descriptor for float register i.
func (rf *RegisterFile) Float(i int) *RegisterDesc { return &rf.floats[i] }

// Canonical special register indices.
const (
	RegZero = 0 // x0
	RegRA   = 1 // x1: return address
	RegSP   = 2 // x2: stack pointer
)
