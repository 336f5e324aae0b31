package asm

import (
	"fmt"
	"math"
	"strings"

	"riscvsim/internal/isa"
	"riscvsim/internal/memory"
)

func float32bits(f float32) uint32 { return math.Float32bits(f) }
func float64bits(f float64) uint64 { return math.Float64bits(f) }

// section tracks whether statements assemble into code or data.
type section uint8

const (
	secText section = iota
	secData
)

// parser holds the first-pass state. It is handed one line of tokens at
// a time and splits operands into scratch that every line reuses, so
// what it allocates is what the Program keeps.
type parser struct {
	set  *isa.Set
	regs *isa.RegisterFile
	errs ErrorList
	// groups[d] holds the operand groups at pseudo-expansion depth d and
	// lits[d] the template operands that expansion spells out.
	groups [maxExpansion + 2][][]Token
	lits   [maxExpansion + 2][]Token

	prog    *Program
	sect    section
	pending []string // labels awaiting their statement

	// lines is the number of source lines and line the one being parsed,
	// which size the slab.
	lines, line int
	// instrSlab hands out the Program's instructions from shared arrays:
	// an allocation per chunk, not one per instruction.
	instrSlab []Instruction
	// symDep records that the line being parsed evaluated an operand
	// against the symbol table as it stands, so a repeat of its text
	// could mean something else.
	symDep bool
}

// lineCache holds the instruction lines a Parse call may reuse, in sets
// of two picked by the text's hash; a new entry displaces the older of a
// full set. It lives on the stack, so a source that repeats no line costs
// no heap.
type lineCache [lineSets]lineSet

const lineSets = 128

type lineSet [2]lineMemo

// lineMemo is an instruction line parsed once: its text and the
// instructions it made, Program.Instructions[first : first+n].
type lineMemo struct {
	text     string
	first, n int32
}

// set picks text's set from its length and its first and last eight
// bytes, which tell compiled lines apart; texts that share a set are
// still compared whole. The pick is fixed, so a Parse allocates the same
// on every run.
func (c *lineCache) set(text string) *lineSet {
	h := uint64(len(text))
	for i := 0; i < 8 && i < len(text); i++ {
		h = h<<8 | uint64(text[i])
	}
	for i := max(len(text)-8, 8); i < len(text); i++ {
		h = h*31 + uint64(text[i])
	}
	return &c[h*0x9E3779B97F4A7C15>>57] // the top 7 bits: lineSets
}

func (s *lineSet) find(text string) (lineMemo, bool) {
	for _, m := range s {
		if m.n > 0 && m.text == text {
			return m, true
		}
	}
	return lineMemo{}, false
}

func (s *lineSet) add(m lineMemo) { s[1], s[0] = s[0], m }

// Parse runs the assembler's first pass: tokenization and processing of
// instructions and memory directives (paper §III-C). The returned program
// still needs Load to allocate memory and resolve label expressions.
//
// An instruction line whose text was parsed before in this call is not
// parsed again (lineCache): compiled code repeats a few dozen distinct
// lines hundreds of times. Its instructions are copies of the first
// occurrence's with their own index and line, sharing the operands unless
// one waits for the second pass. Only a line that parsed without a
// diagnostic, without labels and without consulting the symbol table is
// reused, so every diagnostic is still made at its own line. The memo ends
// with the call.
func Parse(src string, set *isa.Set, regs *isa.RegisterFile) (*Program, error) {
	p := &parser{
		set:  set,
		regs: regs,
		prog: &Program{
			Symbols:    make(SymbolTable),
			codeLabels: make(map[string]int),
		},
		lines: strings.Count(src, "\n") + 1,
	}
	p.prog.Instructions = make([]*Instruction, 0, min(p.lines, slabChunk))
	var memo lineCache
	lx := newLexer(src)
	var line []Token
	for {
		// bucket is nil inside a block comment, where a line's tokens
		// depend on more than its text.
		var bucket *lineSet
		text, plain := lx.lineText()
		p.line = lx.line
		if plain {
			bucket = memo.set(text)
			if m, ok := bucket.find(text); ok {
				p.replay(m, lx.line)
				lx.skipLine(text)
				continue
			}
		}
		start, nerrs, first := lx.i, len(lx.errs)+len(p.errs), len(p.prog.Instructions)
		if line = lx.next(line); len(line) == 0 {
			break
		}
		p.symDep = false
		p.parseLine(line)
		if bucket != nil && !lx.inComment && lx.i == min(start+len(text)+1, len(src)) &&
			line[0].Kind == TokIdent && line[1].Kind != TokColon && !p.symDep &&
			len(lx.errs)+len(p.errs) == nerrs && len(p.prog.Instructions) > first {
			bucket.add(lineMemo{text, int32(first), int32(len(p.prog.Instructions) - first)})
		}
	}
	// Code labels are known after the first pass.
	for name, idx := range p.prog.codeLabels {
		p.prog.Symbols[name] = int64(idx)
	}
	// Lexer diagnostics come first, then the parser's, each in source order.
	return p.prog, append(lx.errs, p.errs...).Err()
}

// replay appends the instructions of memoized line m again, at source
// line line.
func (p *parser) replay(m lineMemo, line int) {
	for _, tmpl := range p.prog.Instructions[m.first : m.first+m.n] {
		p.attachCodeLabels()
		in := p.newInstruction()
		*in = Instruction{Desc: tmpl.Desc, Ops: tmpl.Ops, Index: len(p.prog.Instructions), Line: line}
		// Load resolves a waiting operand in place, per instruction.
		for i := range tmpl.Ops {
			if tmpl.Ops[i].expr != nil {
				in.Ops = append([]Operand(nil), tmpl.Ops...)
				break
			}
		}
		p.prog.Instructions = append(p.prog.Instructions, in)
	}
}

// slabChunk bounds the instructions one slab allocation holds, so a
// source of blank lines reserves nothing much.
const slabChunk = 1024

// newInstruction returns a zero Instruction from the slab. A new chunk is
// sized for the lines still to come at the density of instructions in the
// lines so far, so comments and blank lines reserve little.
func (p *parser) newInstruction() *Instruction {
	if len(p.instrSlab) == 0 {
		rest := p.lines - p.line + 1 // this line included
		n := min(rest, 16)
		if done := p.line - 1; done > 0 && len(p.prog.Instructions) > 0 {
			n = min(rest, rest*len(p.prog.Instructions)/done+4)
		}
		p.instrSlab = make([]Instruction, min(max(n, 1), slabChunk))
	}
	in := &p.instrSlab[0]
	p.instrSlab = p.instrSlab[1:]
	return in
}

// Assemble is the full pipeline: parse, allocate, resolve and write the
// data image into memory.
func Assemble(src string, set *isa.Set, regs *isa.RegisterFile, mem *memory.Main) (*Program, error) {
	prog, err := Parse(src, set, regs)
	if err != nil {
		return nil, err
	}
	if err := prog.Load(mem); err != nil {
		return nil, err
	}
	return prog, nil
}

func (p *parser) errf(tok Token, format string, args ...any) {
	p.errs = append(p.errs, &Error{Line: tok.Line, Col: tok.Col, Msg: fmt.Sprintf(format, args...)})
}

// parseLine parses one line's tokens, which end with its TokNewline.
func (p *parser) parseLine(line []Token) {
	// Labels: ident ':' (possibly several on one line). GAS-style local
	// labels (.L1) lex as directive tokens but define labels all the same.
	for (line[0].Kind == TokIdent || line[0].Kind == TokDir) && line[1].Kind == TokColon {
		label := line[0].Text
		_, dupSym := p.prog.Symbols[label]
		_, dupCode := p.prog.codeLabels[label]
		if dupSym || dupCode || p.isPending(label) {
			p.errf(line[0], "duplicate label %q", label)
		} else {
			p.pending = append(p.pending, label)
		}
		line = line[2:]
	}
	switch t := line[0]; t.Kind {
	case TokNewline:
		// A blank or label-only line.
	case TokDir:
		p.parseDirective(t, line[1:len(line)-1])
	case TokIdent:
		p.expand(t, p.operands(line[1:len(line)-1]), 0)
	default:
		p.errf(t, "expected instruction, directive or label, got %q", t.Text)
	}
}

// isPending reports whether a label is already waiting to be bound, so
// `foo:` directly followed by `foo:` is a duplicate even though neither
// has reached the symbol table yet.
func (p *parser) isPending(label string) bool {
	for _, l := range p.pending {
		if l == label {
			return true
		}
	}
	return false
}

// attachCodeLabels binds pending labels to the next instruction index.
func (p *parser) attachCodeLabels() {
	for _, l := range p.pending {
		p.prog.codeLabels[l] = len(p.prog.Instructions)
	}
	p.pending = p.pending[:0]
}

// dataItemFor returns a data item for the current directive, consuming
// pending labels.
func (p *parser) dataItemFor(line int) *DataItem {
	item := &DataItem{Labels: append([]string(nil), p.pending...), Align: 1, Line: line}
	p.pending = p.pending[:0]
	p.prog.Data = append(p.prog.Data, item)
	return item
}

// operands splits the remainder of the line into comma-separated operand
// token groups (respecting parentheses), in the depth-0 scratch.
func (p *parser) operands(line []Token) [][]Token {
	groups := p.groups[0][:0]
	depth, start := 0, 0
	for i, t := range line {
		switch t.Kind {
		case TokLParen:
			depth++
		case TokRParen:
			depth--
		case TokComma:
			if depth == 0 {
				groups = append(groups, line[start:i:i])
				start = i + 1
			}
		}
	}
	if start < len(line) || len(groups) > 0 {
		groups = append(groups, line[start:])
	}
	p.groups[0] = groups
	return groups
}

// groupText spells an operand group for display; a one-token group is the
// token's own text.
func groupText(g []Token) string {
	if len(g) == 1 {
		return g[0].Text
	}
	var sb strings.Builder
	for i, t := range g {
		if i > 0 && needSpace(g[i-1], t) {
			sb.WriteByte(' ')
		}
		sb.WriteString(t.Text)
	}
	return sb.String()
}

func needSpace(a, b Token) bool {
	return (a.Kind == TokIdent || a.Kind == TokNumber) &&
		(b.Kind == TokIdent || b.Kind == TokNumber)
}

// ---------------------------------------------------------------------------
// Directives
// ---------------------------------------------------------------------------

// parseDirective handles the directive dir with the rest of its line.
func (p *parser) parseDirective(dir Token, line []Token) {
	name := strings.ToLower(dir.Text)
	switch name {
	case ".text":
		p.sect = secText
	case ".data", ".bss", ".rodata":
		p.sect = secData
	case ".section":
		// `.section .rodata` etc. — data unless it names .text.
		if len(line) > 0 && strings.Contains(line[0].Text, "text") {
			p.sect = secText
		} else {
			p.sect = secData
		}
	case ".byte":
		p.dataElems(dir, line, 1)
	case ".hword", ".half", ".short", ".2byte":
		p.dataElems(dir, line, 2)
	case ".word", ".long", ".4byte":
		p.dataElems(dir, line, 4)
	case ".dword", ".quad", ".8byte":
		p.dataElems(dir, line, 8)
	case ".float":
		p.floatElems(dir, line, 4)
	case ".double":
		p.floatElems(dir, line, 8)
	case ".ascii":
		p.stringData(dir, line, false)
	case ".asciiz", ".string":
		p.stringData(dir, line, true)
	case ".zero", ".skip", ".space":
		p.skipData(dir, line)
	case ".align", ".p2align":
		// Power-of-two exponent (paper Listing 2: ".align 4" gives
		// 16-byte alignment).
		if len(line) < 1 || line[0].Kind != TokNumber {
			p.errf(dir, "%s expects a numeric power-of-two exponent", name)
			return
		}
		n, err := parseIntLiteral(line[0].Text)
		if err != nil || n < 0 || n > 16 {
			p.errf(dir, "bad alignment exponent %q", line[0].Text)
			return
		}
		item := p.dataItemFor(dir.Line)
		item.Align = 1 << n
	case ".balign":
		if len(line) < 1 || line[0].Kind != TokNumber {
			p.errf(dir, ".balign expects a byte count")
			return
		}
		n, err := parseIntLiteral(line[0].Text)
		if err != nil || n <= 0 || n > 65536 || n&(n-1) != 0 {
			p.errf(dir, "bad alignment %q", line[0].Text)
			return
		}
		item := p.dataItemFor(dir.Line)
		item.Align = int(n)
	case ".equ", ".set":
		groups := p.operands(line)
		if len(groups) != 2 || len(groups[0]) != 1 || groups[0][0].Kind != TokIdent {
			p.errf(dir, "%s expects `name, expression`", name)
			return
		}
		v, err := evalOperand(groups[1], p.prog.Symbols)
		if err != nil {
			p.errf(dir, "%s: %v", name, err)
			return
		}
		p.prog.Symbols[groups[0][0].Text] = v
	case ".globl", ".global", ".type", ".size", ".file", ".ident",
		".option", ".attribute", ".local", ".weak", ".comm", ".addrsig",
		".addrsig_sym", ".cfi_startproc", ".cfi_endproc", ".cfi_offset",
		".cfi_def_cfa_offset", ".cfi_restore", ".cfi_def_cfa":
		// Linkage and debug directives carry no meaning for the
		// simulator; the output filter also strips them (paper §III-C).
	default:
		p.errf(dir, "unsupported directive %q", dir.Text)
	}
}

// dataElems parses `.word 1, 2, label+4` style directives.
func (p *parser) dataElems(dir Token, line []Token, size int) {
	item := p.dataItemFor(dir.Line)
	if item.Align < size {
		item.Align = size
	}
	groups := p.operands(line)
	if len(groups) == 0 {
		p.errf(dir, "%s expects at least one value", dir.Text)
		return
	}
	for _, g := range groups {
		if len(g) == 0 {
			p.errf(dir, "empty element in %s", dir.Text)
			continue
		}
		// Try immediate evaluation; defer to pass 2 when it uses labels.
		if v, err := evalOperand(g, p.prog.Symbols); err == nil {
			item.Elems = append(item.Elems, DataElem{Size: size, Val: v})
		} else {
			item.Elems = append(item.Elems, DataElem{Size: size, expr: newOperandExpr(g, groupText(g))})
		}
	}
}

func (p *parser) floatElems(dir Token, line []Token, size int) {
	item := p.dataItemFor(dir.Line)
	if item.Align < size {
		item.Align = size
	}
	groups := p.operands(line)
	for _, g := range groups {
		neg := false
		i := 0
		if len(g) > 0 && (g[0].Kind == TokMinus || g[0].Kind == TokPlus) {
			neg = g[0].Kind == TokMinus
			i = 1
		}
		if len(g) != i+1 || g[i].Kind != TokNumber {
			p.errf(dir, "bad floating-point literal in %s", dir.Text)
			continue
		}
		f, err := parseFloatLiteral(g[i].Text)
		if err != nil {
			p.errf(dir, "bad floating-point literal %q", g[i].Text)
			continue
		}
		if neg {
			f = -f
		}
		item.Elems = append(item.Elems, DataElem{Size: size, Float: true, FVal: f})
	}
}

func (p *parser) stringData(dir Token, line []Token, zeroTerm bool) {
	item := p.dataItemFor(dir.Line)
	if len(line) != 1 || line[0].Kind != TokString {
		p.errf(dir, "%s expects one string literal", dir.Text)
		return
	}
	for _, b := range []byte(line[0].Text) {
		item.Elems = append(item.Elems, DataElem{Size: 1, Val: int64(b)})
	}
	if zeroTerm {
		item.Elems = append(item.Elems, DataElem{Size: 1, Val: 0})
	}
}

func (p *parser) skipData(dir Token, line []Token) {
	groups := p.operands(line)
	if len(groups) < 1 {
		p.errf(dir, "%s expects a byte count", dir.Text)
		return
	}
	n, err := evalOperand(groups[0], p.prog.Symbols)
	if err != nil || n < 0 {
		p.errf(dir, "bad byte count in %s", dir.Text)
		return
	}
	item := p.dataItemFor(dir.Line)
	item.Skip = int(n)
}

// ---------------------------------------------------------------------------
// Instructions
// ---------------------------------------------------------------------------

// maxExpansion bounds pseudo-instruction nesting, so a cyclic pseudo
// definition fails instead of recursing forever.
const maxExpansion = 4

// expand resolves pseudo-instructions (possibly recursively) and assembles
// the final instruction. Each expansion writes its operands into the
// scratch of the next depth.
func (p *parser) expand(mn Token, groups [][]Token, depth int) {
	if depth > maxExpansion {
		p.errf(mn, "pseudo-instruction expansion too deep for %q", mn.Text)
		return
	}
	name := strings.ToLower(mn.Text)

	if ps, ok := p.set.Pseudo(name); ok {
		if len(groups) != ps.Operands {
			p.errf(mn, "%s expects %d operands, got %d", name, ps.Operands, len(groups))
			return
		}
		for _, tmpl := range ps.Expansion {
			newMn := Token{Kind: TokIdent, Text: tmpl[0], Line: mn.Line, Col: mn.Col}
			newGroups, lits := p.groups[depth+1][:0], p.lits[depth+1][:0]
			for _, opTmpl := range tmpl[1:] {
				if strings.HasPrefix(opTmpl, "$") {
					idx := int(opTmpl[1] - '0')
					if idx < 0 || idx >= len(groups) {
						p.errf(mn, "bad operand substitution %q in pseudo %s", opTmpl, name)
						return
					}
					newGroups = append(newGroups, groups[idx])
				} else {
					kind := TokIdent
					if opTmpl[0] == '-' || (opTmpl[0] >= '0' && opTmpl[0] <= '9') {
						kind = TokNumber
					}
					lits = append(lits, Token{Kind: kind, Text: opTmpl, Line: mn.Line, Col: mn.Col})
					newGroups = append(newGroups, lits[len(lits)-1:])
				}
			}
			p.groups[depth+1], p.lits[depth+1] = newGroups, lits
			p.expand(newMn, newGroups, depth+1)
		}
		return
	}

	desc, ok := p.set.Lookup(name)
	if !ok {
		p.errf(mn, "unknown instruction %q", mn.Text)
		return
	}
	p.assemble(mn, desc, groups)
}

// assemble binds operand groups to the descriptor's arguments according to
// its assembly format and appends the instruction to the code segment.
func (p *parser) assemble(mn Token, desc *isa.Desc, groups [][]Token) {
	p.attachCodeLabels()
	in := p.newInstruction()
	*in = Instruction{
		Desc:  desc,
		Index: len(p.prog.Instructions),
		Line:  mn.Line,
		Ops:   make([]Operand, 0, len(desc.Args)),
	}

	bindReg := func(argName string, g []Token) bool {
		arg := desc.Arg(argName)
		if arg == nil {
			p.errf(mn, "internal: %s has no argument %q", desc.Name, argName)
			return false
		}
		if len(g) != 1 || g[0].Kind != TokIdent {
			p.errf(mn, "%s: operand %q must be a register", desc.Name, groupText(g))
			return false
		}
		rd, ok := p.regs.Lookup(g[0].Text)
		if !ok {
			p.errf(g[0], "unknown register %q", g[0].Text)
			return false
		}
		wantClass := isa.RegInt
		if arg.Kind == isa.ArgRegFloat {
			wantClass = isa.RegFloat
		}
		if rd.Class != wantClass {
			p.errf(g[0], "%s: register %q has the wrong class for %s", desc.Name, g[0].Text, argName)
			return false
		}
		in.Ops = append(in.Ops, Operand{Arg: arg, Reg: rd.Index, Text: g[0].Text})
		return true
	}

	bindImm := func(argName string, g []Token) bool {
		arg := desc.Arg(argName)
		if arg == nil {
			p.errf(mn, "internal: %s has no argument %q", desc.Name, argName)
			return false
		}
		op := Operand{Arg: arg, Text: groupText(g)}
		if namesSymbol(g) {
			op.expr = newOperandExpr(g, op.Text)
		} else if v, err := evalOperand(g, p.prog.Symbols); err == nil {
			op.Val = v
		} else {
			op.expr = newOperandExpr(g, op.Text)
		}
		in.Ops = append(in.Ops, op)
		return true
	}

	// splitAddress decomposes `imm(reg)`, `(reg)` or `imm` into its parts.
	splitAddress := func(g []Token) (immToks, regToks []Token) {
		// Find a trailing "( ident )".
		if len(g) >= 3 && g[len(g)-1].Kind == TokRParen &&
			g[len(g)-2].Kind == TokIdent && g[len(g)-3].Kind == TokLParen {
			return g[:len(g)-3], g[len(g)-2 : len(g)-1]
		}
		return g, nil
	}

	wrong := func(want string) {
		p.errf(mn, "%s expects operands `%s`", desc.Name, want)
	}

	switch desc.Format {
	case isa.FmtNone:
		if len(groups) != 0 {
			wrong("(none)")
			return
		}
	case isa.FmtR:
		if len(groups) != 3 {
			wrong("rd, rs1, rs2")
			return
		}
		if !bindReg("rd", groups[0]) || !bindReg("rs1", groups[1]) || !bindReg("rs2", groups[2]) {
			return
		}
	case isa.FmtR2:
		if len(groups) != 2 {
			wrong("rd, rs1")
			return
		}
		if !bindReg("rd", groups[0]) || !bindReg("rs1", groups[1]) {
			return
		}
	case isa.FmtR4:
		if len(groups) != 4 {
			wrong("rd, rs1, rs2, rs3")
			return
		}
		if !bindReg("rd", groups[0]) || !bindReg("rs1", groups[1]) ||
			!bindReg("rs2", groups[2]) || !bindReg("rs3", groups[3]) {
			return
		}
	case isa.FmtI:
		// jalr accepts `rd, rs1, imm`, `rd, imm(rs1)`, `rd, rs1` and `rs1`.
		if desc.Name == "jalr" {
			if !p.bindJalr(mn, desc, in, groups) {
				return
			}
			break
		}
		if len(groups) != 3 {
			wrong("rd, rs1, imm")
			return
		}
		if !bindReg("rd", groups[0]) || !bindReg("rs1", groups[1]) || !bindImm("imm", groups[2]) {
			return
		}
	case isa.FmtU:
		if len(groups) != 2 {
			wrong("rd, imm")
			return
		}
		if !bindReg("rd", groups[0]) || !bindImm("imm", groups[1]) {
			return
		}
	case isa.FmtLoad, isa.FmtStore:
		regArg := "rd"
		if desc.Format == isa.FmtStore {
			regArg = "rs2"
		}
		if len(groups) != 2 && len(groups) != 3 {
			wrong(regArg + ", imm(rs1)")
			return
		}
		if !bindReg(regArg, groups[0]) {
			return
		}
		immToks, regToks := splitAddress(groups[1])
		// 3-operand GAS form `lw rd, sym, tmp` — the temp register is
		// advisory and ignored.
		if regToks == nil {
			if len(immToks) == 0 {
				wrong(regArg + ", imm(rs1)")
				return
			}
			// Bare symbol: base x0, absolute address immediate.
			if !bindImm("imm", immToks) {
				return
			}
			in.Ops = append(in.Ops, Operand{Arg: desc.Arg("rs1"), Reg: 0, Text: "x0"})
		} else {
			if len(immToks) == 0 {
				immToks = zeroOffset
			}
			if !bindImm("imm", immToks) {
				return
			}
			if !bindReg("rs1", regToks) {
				return
			}
		}
	case isa.FmtBranch:
		if len(groups) != 3 {
			wrong("rs1, rs2, label")
			return
		}
		if !bindReg("rs1", groups[0]) || !bindReg("rs2", groups[1]) || !bindImm("imm", groups[2]) {
			return
		}
	case isa.FmtJ:
		switch len(groups) {
		case 1:
			// `jal label` implies rd = ra.
			in.Ops = append(in.Ops, Operand{Arg: desc.Arg("rd"), Reg: isa.RegRA, Text: "ra"})
			if !bindImm("imm", groups[0]) {
				return
			}
		case 2:
			if !bindReg("rd", groups[0]) || !bindImm("imm", groups[1]) {
				return
			}
		default:
			wrong("rd, label")
			return
		}
	}
	p.prog.Instructions = append(p.prog.Instructions, in)
}

// zeroOffset is the offset of an address written `(reg)`.
var zeroOffset = []Token{{Kind: TokNumber, Text: "0"}}

// bindJalr handles jalr's flexible source forms.
func (p *parser) bindJalr(mn Token, desc *isa.Desc, in *Instruction, groups [][]Token) bool {
	bindRegTok := func(argName string, t Token) bool {
		rd, ok := p.regs.Lookup(t.Text)
		if !ok || rd.Class != isa.RegInt {
			p.errf(t, "jalr: %q is not an integer register", t.Text)
			return false
		}
		in.Ops = append(in.Ops, Operand{Arg: desc.Arg(argName), Reg: rd.Index, Text: t.Text})
		return true
	}
	immZero := Operand{Arg: desc.Arg("imm"), Val: 0, Text: "0"}
	bindImm := func(g []Token) {
		p.symDep = p.symDep || namesSymbol(g)
		op := Operand{Arg: desc.Arg("imm"), Text: groupText(g)}
		if v, err := evalOperand(g, p.prog.Symbols); err == nil {
			op.Val = v
		} else {
			op.expr = newOperandExpr(g, op.Text)
		}
		in.Ops = append(in.Ops, op)
	}

	switch len(groups) {
	case 1: // jalr rs1  (rd = ra)
		in.Ops = append(in.Ops, Operand{Arg: desc.Arg("rd"), Reg: isa.RegRA, Text: "ra"})
		if len(groups[0]) != 1 {
			p.errf(mn, "jalr expects a register")
			return false
		}
		if !bindRegTok("rs1", groups[0][0]) {
			return false
		}
		in.Ops = append(in.Ops, immZero)
	case 2: // jalr rd, rs1  or  jalr rd, imm(rs1)
		if len(groups[0]) != 1 {
			p.errf(mn, "jalr expects a destination register")
			return false
		}
		if !bindRegTok("rd", groups[0][0]) {
			return false
		}
		g := groups[1]
		if len(g) >= 3 && g[len(g)-1].Kind == TokRParen && g[len(g)-2].Kind == TokIdent && g[len(g)-3].Kind == TokLParen {
			if !bindRegTok("rs1", g[len(g)-2]) {
				return false
			}
			if immToks := g[:len(g)-3]; len(immToks) == 0 {
				in.Ops = append(in.Ops, immZero)
			} else {
				bindImm(immToks)
			}
		} else if len(g) == 1 && g[0].Kind == TokIdent {
			if !bindRegTok("rs1", g[0]) {
				return false
			}
			in.Ops = append(in.Ops, immZero)
		} else {
			p.errf(mn, "jalr: bad source operand %q", groupText(g))
			return false
		}
	case 3: // jalr rd, rs1, imm
		if len(groups[0]) != 1 || len(groups[1]) != 1 {
			p.errf(mn, "jalr expects registers")
			return false
		}
		if !bindRegTok("rd", groups[0][0]) || !bindRegTok("rs1", groups[1][0]) {
			return false
		}
		bindImm(groups[2])
	default:
		p.errf(mn, "jalr expects 1-3 operands, got %d", len(groups))
		return false
	}
	return true
}

// namesSymbol reports whether the expression names a symbol (the hi/lo of
// a %hi/%lo operator aside). Such an operand waits for the second pass even
// when every name is already known: data labels get their final address
// at allocation.
func namesSymbol(g []Token) bool {
	for i, t := range g {
		reloc := i > 0 && g[i-1].Kind == TokPercent && (t.Text == "hi" || t.Text == "lo")
		if (t.Kind == TokIdent || t.Kind == TokDir) && !reloc {
			return true
		}
	}
	return false
}
