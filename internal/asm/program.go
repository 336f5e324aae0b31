package asm

import (
	"fmt"
	"strings"

	"riscvsim/internal/isa"
	"riscvsim/internal/memory"
)

// Operand is one concrete operand of an assembled instruction, parallel to
// the instruction descriptor's Args.
type Operand struct {
	// Arg points at the corresponding argument descriptor.
	Arg *isa.ArgDesc
	// Reg is the architectural register index for register operands.
	Reg int
	// Val is the resolved immediate value (absolute for FmtI/FmtU/jalr,
	// PC-relative for conditional branches and jal).
	Val int64
	// expr holds the unresolved expression until the second pass.
	expr *operandExpr
	// Text is the source spelling, for display.
	Text string
}

// Instruction is one assembled machine instruction at a fixed code index.
type Instruction struct {
	// Desc is the instruction's ISA descriptor.
	Desc *isa.Desc
	// Ops are the operands, parallel to Desc.Args.
	Ops []Operand
	// Index is the instruction's position in the code segment; code
	// addresses are instruction indices (paper §III-B).
	Index int
	// Line is the 1-based source line, linking the instruction back to
	// the editor (paper Fig. 5).
	Line int
}

// Op returns the operand bound to the named argument, or nil.
func (in *Instruction) Op(name string) *Operand {
	for i := range in.Ops {
		if in.Ops[i].Arg.Name == name {
			return &in.Ops[i]
		}
	}
	return nil
}

// String renders the instruction in canonical assembly syntax.
func (in *Instruction) String() string {
	var sb strings.Builder
	sb.WriteString(in.Desc.Name)
	switch in.Desc.Format {
	case isa.FmtNone:
	case isa.FmtLoad:
		fmt.Fprintf(&sb, " %s, %d(%s)", in.opText("rd"), in.immVal(), in.opText("rs1"))
	case isa.FmtStore:
		fmt.Fprintf(&sb, " %s, %d(%s)", in.opText("rs2"), in.immVal(), in.opText("rs1"))
	default:
		sb.WriteByte(' ')
		for i := range in.Ops {
			if i > 0 {
				sb.WriteString(", ")
			}
			op := &in.Ops[i]
			if op.Arg.Kind == isa.ArgRegInt || op.Arg.Kind == isa.ArgRegFloat {
				sb.WriteString(op.Text)
			} else if op.expr != nil {
				sb.WriteString(op.expr.String())
			} else {
				fmt.Fprintf(&sb, "%d", op.Val)
			}
		}
	}
	return sb.String()
}

func (in *Instruction) opText(name string) string {
	if op := in.Op(name); op != nil {
		return op.Text
	}
	return "?"
}

func (in *Instruction) immVal() int64 {
	if op := in.Op("imm"); op != nil {
		return op.Val
	}
	return 0
}

// DataElem is one element of a data directive; Size bytes wide, holding
// either a resolved value or an expression awaiting label addresses.
type DataElem struct {
	Size  int
	Val   int64
	Float bool
	FVal  float64
	expr  *operandExpr
}

// DataItem is one allocation unit in the data image: optional labels, an
// alignment requirement and a sequence of elements (or a zero-filled skip).
type DataItem struct {
	Labels []string
	Align  int
	Elems  []DataElem
	Skip   int
	Line   int
	// Addr is assigned during allocation.
	Addr int
}

// Size returns the item's byte size.
func (d *DataItem) Size() int {
	n := d.Skip
	for _, e := range d.Elems {
		n += e.Size
	}
	return n
}

// elemTypeName guesses a display type for the memory window.
func (d *DataItem) elemTypeName() string {
	if len(d.Elems) == 0 {
		return "byte"
	}
	switch d.Elems[0].Size {
	case 1:
		return "byte"
	case 2:
		return "hword"
	case 8:
		if d.Elems[0].Float {
			return "double"
		}
		return "dword"
	default:
		if d.Elems[0].Float {
			return "float"
		}
		return "word"
	}
}

// Program is the output of the assembler: the code segment, the data image
// and the symbol table.
type Program struct {
	// Instructions is the code segment; the instruction at Instructions[i]
	// has code address i.
	Instructions []*Instruction
	// Data is the static data image, allocated into memory by Load.
	Data []*DataItem
	// Symbols maps every label to its value: code labels to instruction
	// indices, data labels to byte addresses (after Load).
	Symbols SymbolTable

	codeLabels map[string]int
	resolved   bool
}

// EntryPoint resolves the simulation entry: an empty name means the first
// instruction; otherwise the named label must exist in the code segment
// (paper §II-B: "The entry point can be set to the first instruction or
// any specified label").
func (p *Program) EntryPoint(label string) (int, error) {
	if label == "" {
		return 0, nil
	}
	idx, ok := p.codeLabels[label]
	if !ok {
		return 0, fmt.Errorf("asm: entry label %q not defined in code", label)
	}
	return idx, nil
}

// MixStatic counts instructions by type: the static instruction mix shown
// by the runtime-statistics window (paper §II-D).
func (p *Program) MixStatic() [isa.NumInstrTypes]int {
	var mix [isa.NumInstrTypes]int
	for _, in := range p.Instructions {
		mix[in.Desc.Type]++
	}
	return mix
}

// Load performs the between-pass memory allocation and the second pass
// (paper §III-C): data items are placed in memory with their alignment,
// label values become known, operand expressions are evaluated, and the
// data image is written into memory.
func (p *Program) Load(mem *memory.Main) error {
	if p.resolved {
		return fmt.Errorf("asm: program already loaded")
	}
	// Allocate data items and define their labels.
	for _, item := range p.Data {
		name := ""
		if len(item.Labels) > 0 {
			name = item.Labels[0]
		}
		addr, err := mem.Allocate(name, item.Size(), item.Align, item.elemTypeName())
		if err != nil {
			return ErrorList{{Line: item.Line, Msg: err.Error()}}
		}
		item.Addr = addr
		for _, l := range item.Labels {
			p.Symbols[l] = int64(addr)
		}
	}
	// Second pass: fill in operand values.
	var errs ErrorList
	for _, in := range p.Instructions {
		for i := range in.Ops {
			op := &in.Ops[i]
			if op.expr == nil {
				continue
			}
			v, err := evalOperand(op.expr.toks, p.Symbols)
			if err != nil {
				errs = append(errs, &Error{Line: in.Line, Msg: err.Error()})
				continue
			}
			// Jump instructions use relative values, so the
			// instruction's position is subtracted from the
			// absolute label value (paper §III-C).
			if op.Arg.Kind == isa.ArgLabel && in.Desc.PCRelative {
				v -= int64(in.Index)
			}
			op.Val = v
			op.expr = nil
		}
	}
	// Resolve and write data elements.
	for _, item := range p.Data {
		addr := item.Addr
		for i := range item.Elems {
			e := &item.Elems[i]
			if e.expr != nil {
				v, err := evalOperand(e.expr.toks, p.Symbols)
				if err != nil {
					errs = append(errs, &Error{Line: item.Line, Msg: err.Error()})
					v = 0
				}
				e.Val = v
				e.expr = nil
			}
			var buf [8]byte // elements are 1, 2, 4 or 8 bytes wide
			bits := uint64(e.Val)
			if e.Float {
				bits = floatBits(e.FVal, e.Size)
			}
			for b := 0; b < e.Size; b++ {
				buf[b] = byte(bits >> (8 * b))
			}
			if exc := mem.WriteBytes(addr, buf[:e.Size]); exc != nil {
				errs = append(errs, &Error{Line: item.Line, Msg: exc.Error()})
			}
			addr += e.Size
		}
	}
	p.resolved = true
	return errs.Err()
}

func floatBits(f float64, size int) uint64 {
	if size == 4 {
		return uint64(float32bits(float32(f)))
	}
	return float64bits(f)
}
