package compiler

import (
	"strconv"
	"strings"
)

// Result is the output of a compilation: RISC-V assembly, a mapping from
// assembly lines to C source lines (for the editor's linked highlighting,
// paper Fig. 5) and any diagnostics.
type Result struct {
	// Assembly is the generated RV32IM(F) assembly text.
	Assembly string `json:"assembly"`
	// LineMap gives, for each assembly line (0-based), the 1-based C
	// source line it was generated from (0 = none).
	LineMap []int `json:"lineMap"`
	// Diags carries warnings when compilation succeeded with notes.
	Diags DiagList `json:"diags,omitempty"`
}

// Compile translates C source to RISC-V assembly at the given optimization
// level (0..3, the paper's four levels):
//
//	-O0  stack-machine code, all locals in memory
//	-O1  + constant folding, locals promoted to callee-saved registers
//	-O2  + strength reduction and peephole cleanup
//	-O3  + full unrolling of small constant-trip-count loops
func Compile(src string, opt int) (*Result, error) {
	if opt < 0 {
		opt = 0
	}
	if opt > 3 {
		opt = 3
	}
	lx := newLexer(src)
	ast, parseErrs := parse(lx)
	errs := append(lx.errs, parseErrs...)
	if err := errs.Err(); err != nil {
		return nil, err
	}
	prog, semaErrs := analyze(ast)
	if err := semaErrs.Err(); err != nil {
		return nil, err
	}
	if opt >= 1 {
		foldProgram(ast)
	}
	if opt >= 3 {
		unrollProgram(ast)
	}
	g := &codegen{prog: prog, opt: opt}
	g.run()
	if opt >= 2 {
		g.textLines()
		g.peephole()
	}
	return g.result(), nil
}

// asmLine is one emitted assembly line: its bounds in codegen.text,
// indentation and newline excluded, and its originating C line.
type asmLine struct{ off, end, cline int32 }

// textLine is an assembly line as the passes that rewrite the output see
// it.
type textLine struct {
	text  string
	cline int
}

type codegen struct {
	prog *program
	opt  int
	// text is the output as it is emitted, each line already indented or
	// not and ended; out lists the lines. lines, once set, replaces both
	// (textLines).
	text  []byte
	out   []asmLine
	lines []textLine

	labelN  int
	curLine int

	fn         *FuncDecl
	frame      map[*Symbol]int
	frameSize  int
	localsBase int
	breakLbl   []string
	contLbl    []string
	epilogue   string
}

// emit appends one line of assembly: format with its verbs replaced by
// args (appendf).
func (g *codegen) emit(format string, args ...any) {
	start := g.beginLine()
	g.text = appendf(g.text, format, args...)
	g.endLine(start)
}

// beginLine opens a line at the end of the output text, to be written by
// appending to g.text and closed by endLine.
func (g *codegen) beginLine() int {
	g.text = append(g.text, '\t')
	return len(g.text)
}

// endLine closes the line opened at start. Instructions stay indented;
// directives and labels move back to the margin.
func (g *codegen) endLine(start int) {
	if line := g.text[start:]; len(line) > 0 && (line[0] == '.' || line[len(line)-1] == ':') {
		g.text = append(g.text[:start-1], line...)
		start--
	}
	g.out = append(g.out, asmLine{off: int32(start), end: int32(len(g.text)), cline: int32(g.curLine)})
	g.text = append(g.text, '\n')
}

func (g *codegen) emitLabel(l string) {
	start := g.beginLine()
	g.text = append(append(g.text, l...), ':')
	g.endLine(start)
}

func (g *codegen) newLabel(hint string) string {
	g.labelN++
	return ".L" + hint + strconv.Itoa(g.labelN)
}

// appendf appends format to b with %% written as % and each %s, %d and %g
// replaced by the next argument (a string, an int or int64, a float64) as
// fmt would spell it. Nothing reaches fmt, so the arguments are not boxed
// on the heap.
func appendf(b []byte, format string, args ...any) []byte {
	n := 0
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' || i+1 == len(format) {
			b = append(b, c)
			continue
		}
		i++
		verb := format[i]
		if verb == '%' {
			b = append(b, '%')
			continue
		}
		var arg any
		if n < len(args) {
			arg = args[n]
		}
		n++
		switch v := arg.(type) {
		case string:
			if verb == 's' {
				b = append(b, v...)
				continue
			}
		case int:
			if verb == 'd' {
				b = strconv.AppendInt(b, int64(v), 10)
				continue
			}
		case int64:
			if verb == 'd' {
				b = strconv.AppendInt(b, v, 10)
				continue
			}
		case float64:
			if verb == 'g' {
				b = strconv.AppendFloat(b, v, 'g', -1, 64)
				continue
			}
		}
		b = append(append(append(b, "%!"...), verb), "(BADARG)"...)
	}
	return b
}

// textLines turns the output into lines of text, for the passes that
// rewrite them.
func (g *codegen) textLines() {
	text := string(g.text)
	g.lines = make([]textLine, len(g.out))
	for i, l := range g.out {
		g.lines[i] = textLine{text: text[l.off:l.end], cline: int(l.cline)}
	}
}

func (g *codegen) result() *Result {
	if g.lines == nil {
		// Nothing rewrote a line: the output text is the assembly.
		lineMap := make([]int, len(g.out))
		for i, l := range g.out {
			lineMap[i] = int(l.cline)
		}
		return &Result{Assembly: string(g.text), LineMap: lineMap}
	}
	var sb strings.Builder
	sb.Grow(len(g.text))
	lineMap := make([]int, len(g.lines))
	for i, l := range g.lines {
		if strings.HasSuffix(l.text, ":") || strings.HasPrefix(l.text, ".") {
			sb.WriteString(l.text)
		} else {
			sb.WriteByte('\t')
			sb.WriteString(l.text)
		}
		sb.WriteByte('\n')
		lineMap[i] = l.cline
	}
	return &Result{Assembly: sb.String(), LineMap: lineMap}
}

func (g *codegen) run() {
	// main comes first so index 0 is the program entry even without an
	// explicit entry label.
	var ordered []*FuncDecl
	for _, f := range g.prog.ast.Funcs {
		if f.Name == "main" && f.Body != nil {
			ordered = append(ordered, f)
		}
	}
	for _, f := range g.prog.ast.Funcs {
		if f.Name != "main" && f.Body != nil {
			ordered = append(ordered, f)
		}
	}
	for _, f := range ordered {
		g.genFunc(f)
	}
	g.genGlobals()
}

// ---------------------------------------------------------------------------
// Globals
// ---------------------------------------------------------------------------

func (g *codegen) genGlobals() {
	if len(g.prog.ast.Globals) == 0 {
		return
	}
	g.curLine = 0
	g.emit(".data")
	for _, gl := range g.prog.ast.Globals {
		g.curLine = gl.Line
		align := gl.Type.Align()
		if align > 1 {
			g.emit(".balign %d", align)
		}
		g.emitLabel(gl.Name)
		switch {
		case gl.Extern:
			// Substitution for the paper's extern-array workflow: the
			// storage is reserved here and populated from the Memory
			// Settings window by label.
			g.emit(".zero %d   # extern, filled via memory settings", gl.Type.Size())
		case gl.Type.Kind == TyArray:
			g.genArrayInit(gl)
		case gl.Init != nil:
			g.genScalarInit(gl.Type, gl.Init)
		default:
			g.emit(".zero %d", gl.Type.Size())
		}
	}
}

func (g *codegen) genScalarInit(t *CType, init *Expr) {
	v, f, isConst, isFloat := constValue(init)
	if !isConst {
		g.emit(".zero %d   # non-constant initializer dropped", t.Size())
		return
	}
	switch t.Kind {
	case TyChar:
		g.emit(".byte %d", int64(int8(v)))
	case TyFloat:
		if !isFloat {
			f = float64(v)
		}
		g.emit(".float %g", f)
	case TyDouble:
		if !isFloat {
			f = float64(v)
		}
		g.emit(".double %g", f)
	default:
		if isFloat {
			v = int64(f)
		}
		g.emit(".word %d", int64(int32(v)))
	}
}

func (g *codegen) genArrayInit(gl *VarDecl) {
	elem := gl.Type.Elem
	n := gl.Type.Len
	if n == 0 {
		n = len(gl.Inits)
	}
	if len(gl.Inits) == 0 {
		g.emit(".zero %d", elem.Size()*n)
		return
	}
	// Emit all elements on one directive line so the assembler registers
	// a single allocation covering the whole array.
	var dir string
	switch {
	case elem.Kind == TyChar:
		dir = ".byte"
	case elem.Kind == TyFloat:
		dir = ".float"
	case elem.Kind == TyDouble:
		dir = ".double"
	default:
		dir = ".word"
	}
	start := g.beginLine()
	g.text = append(append(g.text, dir...), ' ')
	for i := 0; i < n; i++ {
		if i > 0 {
			g.text = append(g.text, ", "...)
		}
		var e *Expr
		if i < len(gl.Inits) {
			e = gl.Inits[i]
		}
		v, f, isConst, isFloat := int64(0), 0.0, false, false
		if e != nil {
			v, f, isConst, isFloat = constValue(e)
		}
		switch {
		case !isConst:
			g.text = append(g.text, '0')
		case elem.IsFloat():
			if !isFloat {
				f = float64(v)
			}
			g.text = strconv.AppendFloat(g.text, f, 'g', -1, 64)
		case elem.Kind == TyChar:
			g.text = strconv.AppendInt(g.text, int64(int8(v)), 10)
		default:
			if isFloat {
				v = int64(f)
			}
			g.text = strconv.AppendInt(g.text, int64(int32(v)), 10)
		}
	}
	g.endLine(start)
}

// constValue extracts a constant from a (folded) expression.
func constValue(e *Expr) (i int64, f float64, isConst, isFloat bool) {
	switch e.Kind {
	case EIntLit:
		return e.Int, 0, true, false
	case EFloatLit:
		return 0, e.Flt, true, true
	case EUnary:
		if e.Op == "-" {
			i, f, ok, isF := constValue(e.L)
			return -i, -f, ok, isF
		}
	case ECast:
		return constValue(e.L)
	}
	return 0, 0, false, false
}

// ---------------------------------------------------------------------------
// Functions
// ---------------------------------------------------------------------------

// sRegPool is the callee-saved register pool for promoted locals (s0 is
// left free as a general temporary for the generated code itself).
var sRegPool = []string{"s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11"}

func (g *codegen) genFunc(f *FuncDecl) {
	g.fn = f
	g.frame = map[*Symbol]int{}
	g.epilogue = g.newLabel("ret")
	g.curLine = f.Line

	locals := g.prog.funcLocals[f.Name]
	addrTaken := map[*Symbol]bool{}
	markAddrTaken(f.Body, addrTaken)

	// Register promotion (O1+): scalar locals and parameters whose
	// address is never taken live in callee-saved registers.
	sNext := 0
	if g.opt >= 1 {
		for _, sym := range locals {
			if sym.Type.IsScalar() && !sym.Type.IsFloat() && !addrTaken[sym] && sNext < len(sRegPool) {
				sym.Reg = sRegPool[sNext]
				sNext++
			}
		}
	}

	// Frame layout, addressed through the frame pointer s0 so that the
	// stack-machine spills (which move sp transiently) never disturb
	// local addressing:
	//
	//	s0-4          ra
	//	s0-8          caller's s0
	//	s0-12-4i      saved s-registers
	//	s0-hdr-...    locals (g.frame keeps a positive cursor)
	off := 0
	for _, sym := range locals {
		if sym.Reg != "" {
			continue
		}
		a := sym.Type.Align()
		off = (off + a - 1) &^ (a - 1)
		g.frame[sym] = off
		off += sym.Type.Size()
	}
	localsSize := (off + 3) &^ 3
	hdr := 8 + 4*sNext
	g.localsBase = hdr + localsSize // s0 - localsBase + cursor = address
	g.frameSize = (g.localsBase + 15) &^ 15

	g.emitLabel(f.Name)
	g.emit("addi sp, sp, -%d", g.frameSize)
	g.emit("sw ra, %d(sp)", g.frameSize-4)
	g.emit("sw s0, %d(sp)", g.frameSize-8)
	for i := 0; i < sNext; i++ {
		g.emit("sw %s, %d(sp)", sRegPool[i], g.frameSize-12-4*i)
	}
	g.emit("addi s0, sp, %d", g.frameSize)

	// Move parameters from the argument registers into their homes.
	intArg, fltArg := 0, 0
	for _, prm := range f.Params {
		sym := prm.Sym
		var src string
		if prm.Type.IsFloat() {
			src = "fa" + strconv.Itoa(fltArg)
			fltArg++
		} else {
			src = "a" + strconv.Itoa(intArg)
			intArg++
		}
		if sym.Reg != "" {
			g.emit("mv %s, %s", sym.Reg, src)
		} else if prm.Type.IsFloat() {
			g.emit("%s %s, %d(s0)", fstoreOp(prm.Type), src, g.localOff(sym))
		} else {
			g.emit("%s %s, %d(s0)", storeOp(prm.Type), src, g.localOff(sym))
		}
	}

	g.genStmt(f.Body)

	g.emitLabel(g.epilogue)
	g.emit("lw ra, -4(s0)")
	for i := 0; i < sNext; i++ {
		g.emit("lw %s, %d(s0)", sRegPool[i], -12-4*i)
	}
	g.emit("mv t0, s0")
	g.emit("lw s0, -8(s0)")
	g.emit("mv sp, t0")
	g.emit("ret")
	g.fn = nil
}

// localOff returns the s0-relative offset of a spilled local.
func (g *codegen) localOff(sym *Symbol) int {
	return g.frame[sym] - g.localsBase
}

// markAddrTaken finds symbols whose address escapes.
func markAddrTaken(st *Stmt, out map[*Symbol]bool) {
	var walkE func(e *Expr)
	walkE = func(e *Expr) {
		if e == nil {
			return
		}
		if e.Kind == EAddr && e.L != nil && e.L.Kind == EVar && e.L.Sym != nil {
			out[e.L.Sym] = true
		}
		walkE(e.L)
		walkE(e.R)
		walkE(e.R2)
		for _, a := range e.Args {
			walkE(a)
		}
	}
	var walkS func(s *Stmt)
	walkS = func(s *Stmt) {
		if s == nil {
			return
		}
		walkE(s.Expr)
		walkE(s.Cond)
		walkE(s.Post)
		if s.Decl != nil {
			walkE(s.Decl.Init)
			for _, e := range s.Decl.Inits {
				walkE(e)
			}
		}
		walkS(s.Init)
		walkS(s.Then)
		walkS(s.Else)
		for _, c := range s.Body {
			walkS(c)
		}
	}
	walkS(st)
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

func (g *codegen) genStmt(st *Stmt) {
	if st == nil {
		return
	}
	g.curLine = st.Line
	switch st.Kind {
	case SBlock:
		for _, c := range st.Body {
			g.genStmt(c)
		}
	case SEmpty:
	case SDecl:
		d := st.Decl
		if d.Init != nil {
			g.genExpr(d.Init)
			g.storeTo(d.Sym, d.Init.Type)
		}
		for i, e := range d.Inits {
			g.genExpr(e)
			elem := d.Type.Elem
			g.emit("addi t2, s0, %d", g.localOff(d.Sym)+i*elem.Size())
			if elem.IsFloat() {
				g.emit("%s ft0, 0(t2)", fstoreOp(elem))
			} else {
				g.emit("%s t0, 0(t2)", storeOp(elem))
			}
		}
	case SExpr:
		g.genExpr(st.Expr)
	case SReturn:
		if st.Expr != nil {
			g.genExpr(st.Expr)
			if st.Expr.Type.IsFloat() {
				g.emit("%s fa0, ft0", fmvOp(st.Expr.Type))
			} else {
				g.emit("mv a0, t0")
			}
		}
		g.emit("j %s", g.epilogue)
	case SIf:
		elseL := g.newLabel("else")
		endL := g.newLabel("endif")
		g.genCondBranch(st.Cond, elseL)
		g.genStmt(st.Then)
		if st.Else != nil {
			g.emit("j %s", endL)
		}
		g.emitLabel(elseL)
		if st.Else != nil {
			g.genStmt(st.Else)
			g.emitLabel(endL)
		}
	case SWhile:
		top := g.newLabel("while")
		end := g.newLabel("wend")
		g.emitLabel(top)
		g.genCondBranch(st.Cond, end)
		g.pushLoop(end, top)
		g.genStmt(st.Then)
		g.popLoop()
		g.emit("j %s", top)
		g.emitLabel(end)
	case SDoWhile:
		top := g.newLabel("do")
		cond := g.newLabel("docond")
		end := g.newLabel("dend")
		g.emitLabel(top)
		g.pushLoop(end, cond)
		g.genStmt(st.Then)
		g.popLoop()
		g.emitLabel(cond)
		g.genExpr(st.Cond)
		g.emit("bnez t0, %s", top)
		g.emitLabel(end)
	case SFor:
		g.genStmt(st.Init)
		top := g.newLabel("for")
		cont := g.newLabel("fcont")
		end := g.newLabel("fend")
		g.emitLabel(top)
		if st.Cond != nil {
			g.genCondBranch(st.Cond, end)
		}
		g.pushLoop(end, cont)
		g.genStmt(st.Then)
		g.popLoop()
		g.emitLabel(cont)
		if st.Post != nil {
			g.genExpr(st.Post)
		}
		g.emit("j %s", top)
		g.emitLabel(end)
	case SBreak:
		if len(g.breakLbl) == 0 {
			return
		}
		g.emit("j %s", g.breakLbl[len(g.breakLbl)-1])
	case SContinue:
		if len(g.contLbl) == 0 {
			return
		}
		g.emit("j %s", g.contLbl[len(g.contLbl)-1])
	}
}

func (g *codegen) pushLoop(brk, cont string) {
	g.breakLbl = append(g.breakLbl, brk)
	g.contLbl = append(g.contLbl, cont)
}

func (g *codegen) popLoop() {
	g.breakLbl = g.breakLbl[:len(g.breakLbl)-1]
	g.contLbl = g.contLbl[:len(g.contLbl)-1]
}

// genCondBranch emits code that jumps to falseL when cond is false, fusing
// integer comparisons into branch instructions.
func (g *codegen) genCondBranch(cond *Expr, falseL string) {
	if cond.Kind == EBinary && !condIsFloat(cond) {
		switch cond.Op {
		case "==", "!=", "<", "<=", ">", ">=":
			g.genExpr(cond.L)
			g.push(nil)
			g.genExpr(cond.R)
			g.emit("mv t1, t0")
			g.popInto(nil, "t0") // t0 = L, t1 = R
			uns := unsignedOp(cond)
			var br string
			switch cond.Op {
			case "==":
				br = "bne t0, t1"
			case "!=":
				br = "beq t0, t1"
			case "<":
				br = pick(uns, "bgeu t0, t1", "bge t0, t1")
			case "<=":
				br = pick(uns, "bltu t1, t0", "blt t1, t0")
			case ">":
				br = pick(uns, "bgeu t1, t0", "bge t1, t0")
			case ">=":
				br = pick(uns, "bltu t0, t1", "blt t0, t1")
			}
			g.emit("%s, %s", br, falseL)
			return
		}
	}
	g.genExpr(cond)
	g.emit("beqz t0, %s", falseL)
}

func condIsFloat(e *Expr) bool {
	return (e.L != nil && e.L.Type != nil && e.L.Type.IsFloat()) ||
		(e.R != nil && e.R.Type != nil && e.R.Type.IsFloat())
}

func pick(c bool, a, b string) string {
	if c {
		return a
	}
	return b
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// push spills t0 (or ft0 for float types) around the evaluation of a
// second operand — stack-machine discipline; the O2 peephole removes
// redundant pairs. t may be nil for integer/pointer values.
func (g *codegen) push(t *CType) {
	switch {
	case t != nil && t.Kind == TyDouble:
		g.emit("addi sp, sp, -8")
		g.emit("fsd ft0, 0(sp)")
	case t != nil && t.Kind == TyFloat:
		g.emit("addi sp, sp, -4")
		g.emit("fsw ft0, 0(sp)")
	default:
		g.emit("addi sp, sp, -4")
		g.emit("sw t0, 0(sp)")
	}
}

// popInto restores a pushed value into the named register.
func (g *codegen) popInto(t *CType, reg string) {
	switch {
	case t != nil && t.Kind == TyDouble:
		g.emit("fld %s, 0(sp)", reg)
		g.emit("addi sp, sp, 8")
	case t != nil && t.Kind == TyFloat:
		g.emit("flw %s, 0(sp)", reg)
		g.emit("addi sp, sp, 4")
	default:
		g.emit("lw %s, 0(sp)", reg)
		g.emit("addi sp, sp, 4")
	}
}

// isLeaf reports whether e can be loaded directly without clobbering t0.
func isLeaf(e *Expr) bool {
	switch e.Kind {
	case EIntLit, EFloatLit:
		return true
	case EVar:
		return e.Sym != nil && (e.Sym.Reg != "" || e.Sym.Kind != SymGlobal) &&
			e.Type != nil && e.Type.IsScalar() && !e.Type.IsFloat()
	}
	return false
}

// genLeafInto loads a leaf expression directly into reg.
func (g *codegen) genLeafInto(e *Expr, reg string) {
	switch e.Kind {
	case EIntLit:
		g.emit("li %s, %d", reg, int64(int32(e.Int)))
	case EVar:
		sym := e.Sym
		if sym.Reg != "" {
			g.emit("mv %s, %s", reg, sym.Reg)
		} else {
			g.emit("%s %s, %d(s0)", loadOp(e.Type), reg, g.localOff(sym))
		}
	}
}

// genExpr evaluates e into t0 (integers/pointers) or ft0 (floats).
func (g *codegen) genExpr(e *Expr) {
	if e == nil {
		return
	}
	g.curLine = e.Line
	switch e.Kind {
	case EIntLit:
		g.emit("li t0, %d", int64(int32(e.Int)))
	case EFloatLit:
		g.genFloatLit(e)
	case EVar:
		g.genVarLoad(e)
	case EBinary:
		g.genBinary(e)
	case EUnary:
		g.genUnary(e)
	case EAssign:
		g.genAssign(e)
	case ECond:
		elseL := g.newLabel("celse")
		endL := g.newLabel("cend")
		g.genCondBranch(e.L, elseL)
		g.genExpr(e.R)
		g.emit("j %s", endL)
		g.emitLabel(elseL)
		g.genExpr(e.R2)
		g.emitLabel(endL)
	case ECall:
		g.genCall(e)
	case EIndex, EDeref:
		g.genAddr(e)
		g.loadFrom(e.Type, "t0")
	case EAddr:
		g.genAddr(e.L)
	case ECast:
		g.genExpr(e.L)
		g.genCast(e.L.Type, e.Cast)
	case EPreIncr:
		// ++x: x = x op 1, result is the new value.
		g.genIncrDecr(e, false)
	case EPostIncr:
		g.genIncrDecr(e, true)
	}
}

func (g *codegen) genFloatLit(e *Expr) {
	bits := float32Bits(float32(e.Flt))
	g.emit("li t0, %d", int64(int32(bits)))
	g.emit("fmv.w.x ft0, t0")
	if e.Type != nil && e.Type.Kind == TyDouble {
		g.emit("fcvt.d.s ft0, ft0")
	}
}

func (g *codegen) genVarLoad(e *Expr) {
	sym := e.Sym
	if sym == nil {
		g.emit("li t0, 0")
		return
	}
	// Arrays decay to their base address.
	if sym.Type.Kind == TyArray {
		g.genAddrOfSym(sym)
		return
	}
	if sym.Reg != "" {
		g.emit("mv t0, %s", sym.Reg)
		return
	}
	if sym.Kind == SymGlobal {
		g.emit("la t1, %s", sym.Name)
		g.loadFromAddr(e.Type, "t1")
		return
	}
	if e.Type.IsFloat() {
		g.emit("%s ft0, %d(s0)", floadOp(e.Type), g.localOff(sym))
	} else {
		g.emit("%s t0, %d(s0)", loadOp(e.Type), g.localOff(sym))
	}
}

// genAddr leaves the address of an lvalue in t0.
func (g *codegen) genAddr(e *Expr) {
	switch e.Kind {
	case EVar:
		g.genAddrOfSym(e.Sym)
	case EDeref:
		g.genExpr(e.L)
	case EIndex:
		g.genExpr(e.L) // pointer value / decayed array base in t0
		elem := e.Type
		size := elem.Size()
		if g.opt >= 1 && e.R.Kind == EIntLit {
			off := e.R.Int * int64(size)
			if off != 0 {
				g.emit("addi t0, t0, %d", off)
			}
			return
		}
		g.push(nil)
		g.genExpr(e.R)
		g.scaleT0(size)
		g.popInto(nil, "t1")
		g.emit("add t0, t1, t0")
	default:
		g.emit("li t0, 0")
	}
}

// scaleT0 multiplies t0 by size (strength-reduced at O2+).
func (g *codegen) scaleT0(size int) {
	switch {
	case size == 1:
	case g.opt >= 2 && size&(size-1) == 0:
		g.emit("slli t0, t0, %d", log2(size))
	default:
		g.emit("li t1, %d", size)
		g.emit("mul t0, t0, t1")
	}
}

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

func (g *codegen) genAddrOfSym(sym *Symbol) {
	if sym == nil {
		g.emit("li t0, 0")
		return
	}
	if sym.Kind == SymGlobal {
		g.emit("la t0, %s", sym.Name)
	} else {
		g.emit("addi t0, s0, %d", g.localOff(sym))
	}
}

// loadFrom loads *t0 into t0/ft0 according to type.
func (g *codegen) loadFrom(t *CType, addrReg string) {
	g.loadFromAddr(t, addrReg)
}

func (g *codegen) loadFromAddr(t *CType, addrReg string) {
	if t.Kind == TyArray {
		if addrReg != "t0" {
			g.emit("mv t0, %s", addrReg)
		}
		return // address is the value
	}
	if t.IsFloat() {
		g.emit("%s ft0, 0(%s)", floadOp(t), addrReg)
	} else {
		g.emit("%s t0, 0(%s)", loadOp(t), addrReg)
	}
}

func loadOp(t *CType) string {
	switch t.Kind {
	case TyChar:
		return "lb"
	default:
		return "lw"
	}
}

func storeOp(t *CType) string {
	switch t.Kind {
	case TyChar:
		return "sb"
	default:
		return "sw"
	}
}

func floadOp(t *CType) string {
	if t.Kind == TyDouble {
		return "fld"
	}
	return "flw"
}

func fstoreOp(t *CType) string {
	if t.Kind == TyDouble {
		return "fsd"
	}
	return "fsw"
}

// storeTo writes t0/ft0 into a symbol's home.
func (g *codegen) storeTo(sym *Symbol, t *CType) {
	if sym == nil {
		return
	}
	if sym.Reg != "" {
		g.emit("mv %s, t0", sym.Reg)
		return
	}
	if sym.Kind == SymGlobal {
		g.emit("la t2, %s", sym.Name)
		if sym.Type.IsFloat() {
			g.emit("%s ft0, 0(t2)", fstoreOp(sym.Type))
		} else {
			g.emit("%s t0, 0(t2)", storeOp(sym.Type))
		}
		return
	}
	if sym.Type.IsFloat() {
		g.emit("%s ft0, %d(s0)", fstoreOp(sym.Type), g.localOff(sym))
	} else {
		g.emit("%s t0, %d(s0)", storeOp(sym.Type), g.localOff(sym))
	}
}

func (g *codegen) genAssign(e *Expr) {
	lhs := e.L
	// Direct variable targets avoid address computation.
	if lhs.Kind == EVar && lhs.Sym != nil && lhs.Sym.Type.Kind != TyArray {
		g.genExpr(e.R)
		g.storeTo(lhs.Sym, e.R.Type)
		return
	}
	// General lvalue: compute the address, stash it, compute the value.
	g.genAddr(lhs)
	g.push(nil)
	g.genExpr(e.R)
	g.emit("lw t2, 0(sp)")
	g.emit("addi sp, sp, 4")
	if lhs.Type.IsFloat() {
		g.emit("%s ft0, 0(t2)", fstoreOp(lhs.Type))
	} else {
		g.emit("%s t0, 0(t2)", storeOp(lhs.Type))
	}
}

func (g *codegen) genIncrDecr(e *Expr, post bool) {
	one := &Expr{Kind: EIntLit, Int: 1, Type: typeInt}
	if e.L.Type != nil && e.L.Type.Kind == TyPtr {
		one.Int = int64(e.L.Type.Elem.Size())
	}
	sum := &Expr{Kind: EBinary, Op: e.Op, L: e.L, R: one, Type: e.L.Type, Line: e.Line}
	asg := &Expr{Kind: EAssign, L: e.L, R: sum, Type: e.L.Type, Line: e.Line}
	if post {
		// Evaluate the old value, then assign; old value ends in t0/ft0.
		g.genExpr(e.L)
		g.push(e.L.Type)
		g.genExpr(asg)
		if e.L.Type.IsFloat() {
			g.popInto(e.L.Type, "ft0")
		} else {
			g.popInto(nil, "t0")
		}
		return
	}
	g.genExpr(asg)
}

func (g *codegen) genUnary(e *Expr) {
	g.genExpr(e.L)
	isF := e.L.Type != nil && e.L.Type.IsFloat()
	switch e.Op {
	case "-":
		if isF {
			if e.L.Type.Kind == TyDouble {
				g.emit("fneg.d ft0, ft0")
			} else {
				g.emit("fneg.s ft0, ft0")
			}
		} else {
			g.emit("neg t0, t0")
		}
	case "!":
		if isF {
			g.genFloatZeroTest(e.L.Type)
			g.emit("seqz t0, t0")
		} else {
			g.emit("seqz t0, t0")
		}
	case "~":
		g.emit("not t0, t0")
	}
}

// genFloatZeroTest sets t0 to (ft0 != 0.0).
func (g *codegen) genFloatZeroTest(t *CType) {
	g.emit("fmv.w.x ft1, x0")
	if t.Kind == TyDouble {
		g.emit("fcvt.d.s ft1, ft1")
		g.emit("feq.d t0, ft0, ft1")
	} else {
		g.emit("feq.s t0, ft0, ft1")
	}
	g.emit("seqz t0, t0")
}

func (g *codegen) genBinary(e *Expr) {
	switch e.Op {
	case ",":
		g.genExpr(e.L)
		g.genExpr(e.R)
		return
	case "&&":
		falseL := g.newLabel("andf")
		endL := g.newLabel("andend")
		g.genCondBranch(e.L, falseL)
		g.genCondBranch(e.R, falseL)
		g.emit("li t0, 1")
		g.emit("j %s", endL)
		g.emitLabel(falseL)
		g.emit("li t0, 0")
		g.emitLabel(endL)
		return
	case "||":
		trueL := g.newLabel("ort")
		endL := g.newLabel("orend")
		g.genOrBranch(e.L, trueL)
		g.genOrBranch(e.R, trueL)
		g.emit("li t0, 0")
		g.emit("j %s", endL)
		g.emitLabel(trueL)
		g.emit("li t0, 1")
		g.emitLabel(endL)
		return
	}

	// Pointer arithmetic scales the integer side.
	lt, rt := e.L.Type, e.R.Type
	isFloat := lt != nil && lt.IsFloat() || rt != nil && rt.IsFloat()

	if isFloat {
		g.genExpr(e.L)
		g.push(e.L.Type)
		g.genExpr(e.R)
		g.emit("%s ft2, ft0", fmvOp(rt)) // R into ft2
		g.popInto(e.L.Type, "ft1")       // L into ft1
		g.genFloatBinary(e, "ft1", "ft2")
		return
	}

	// Integer path with leaf avoidance (O1+).
	if g.opt >= 1 && isLeaf(e.R) {
		g.genExpr(e.L)
		g.genLeafInto(e.R, "t1")
	} else {
		g.genExpr(e.L)
		g.push(nil)
		g.genExpr(e.R)
		g.emit("mv t1, t0")
		g.popInto(nil, "t0") // t0 = L, t1 = R
	}
	g.genPtrScale(e)
	g.genIntBinary(e)
}

// genOrBranch jumps to trueL when cond is true.
func (g *codegen) genOrBranch(cond *Expr, trueL string) {
	g.genExpr(cond)
	g.emit("bnez t0, %s", trueL)
}

// genPtrScale multiplies the integer operand by the pointee size for
// pointer arithmetic (t0 = L, t1 = R at this point).
func (g *codegen) genPtrScale(e *Expr) {
	lt, rt := e.L.Type, e.R.Type
	if lt == nil || rt == nil {
		return
	}
	if (e.Op == "+" || e.Op == "-") && lt.Kind == TyPtr && rt.IsInteger() {
		size := lt.Elem.Size()
		if size > 1 {
			if g.opt >= 2 && size&(size-1) == 0 {
				g.emit("slli t1, t1, %d", log2(size))
			} else {
				g.emit("li t2, %d", size)
				g.emit("mul t1, t1, t2")
			}
		}
	}
	if e.Op == "+" && lt.IsInteger() && rt.Kind == TyPtr {
		size := rt.Elem.Size()
		if size > 1 {
			if g.opt >= 2 && size&(size-1) == 0 {
				g.emit("slli t0, t0, %d", log2(size))
			} else {
				g.emit("li t2, %d", size)
				g.emit("mul t0, t0, t2")
			}
		}
	}
}

func (g *codegen) genIntBinary(e *Expr) {
	uns := unsignedOp(e)
	switch e.Op {
	case "+":
		g.emit("add t0, t0, t1")
	case "-":
		g.emit("sub t0, t0, t1")
		if e.L.Type != nil && e.L.Type.Kind == TyPtr && e.R.Type != nil && e.R.Type.Kind == TyPtr {
			size := e.L.Type.Elem.Size()
			if size > 1 {
				if g.opt >= 2 && size&(size-1) == 0 {
					g.emit("srai t0, t0, %d", log2(size))
				} else {
					g.emit("li t1, %d", size)
					g.emit("div t0, t0, t1")
				}
			}
		}
	case "*":
		g.emit("mul t0, t0, t1")
	case "/":
		if uns {
			g.emit("divu t0, t0, t1")
		} else {
			g.emit("div t0, t0, t1")
		}
	case "%":
		if uns {
			g.emit("remu t0, t0, t1")
		} else {
			g.emit("rem t0, t0, t1")
		}
	case "&":
		g.emit("and t0, t0, t1")
	case "|":
		g.emit("or t0, t0, t1")
	case "^":
		g.emit("xor t0, t0, t1")
	case "<<":
		g.emit("sll t0, t0, t1")
	case ">>":
		if uns {
			g.emit("srl t0, t0, t1")
		} else {
			g.emit("sra t0, t0, t1")
		}
	case "==":
		g.emit("sub t0, t0, t1")
		g.emit("seqz t0, t0")
	case "!=":
		g.emit("sub t0, t0, t1")
		g.emit("snez t0, t0")
	case "<":
		g.emit("%s", pick(uns, "sltu t0, t0, t1", "slt t0, t0, t1"))
	case ">":
		g.emit("%s", pick(uns, "sltu t0, t1, t0", "slt t0, t1, t0"))
	case "<=":
		g.emit("%s", pick(uns, "sltu t0, t1, t0", "slt t0, t1, t0"))
		g.emit("xori t0, t0, 1")
	case ">=":
		g.emit("%s", pick(uns, "sltu t0, t0, t1", "slt t0, t0, t1"))
		g.emit("xori t0, t0, 1")
	}
}

func fmvOp(t *CType) string {
	if t != nil && t.Kind == TyDouble {
		return "fmv.d"
	}
	return "fmv.s"
}

func (g *codegen) genFloatBinary(e *Expr, l, r string) {
	d := e.Type != nil && e.Type.Kind == TyDouble ||
		(e.L.Type != nil && e.L.Type.Kind == TyDouble)
	sfx := pick(d, ".d", ".s")
	switch e.Op {
	case "+":
		g.emit("fadd%s ft0, %s, %s", sfx, l, r)
	case "-":
		g.emit("fsub%s ft0, %s, %s", sfx, l, r)
	case "*":
		g.emit("fmul%s ft0, %s, %s", sfx, l, r)
	case "/":
		g.emit("fdiv%s ft0, %s, %s", sfx, l, r)
	case "==":
		g.emit("feq%s t0, %s, %s", sfx, l, r)
	case "!=":
		g.emit("feq%s t0, %s, %s", sfx, l, r)
		g.emit("xori t0, t0, 1")
	case "<":
		g.emit("flt%s t0, %s, %s", sfx, l, r)
	case "<=":
		g.emit("fle%s t0, %s, %s", sfx, l, r)
	case ">":
		g.emit("flt%s t0, %s, %s", sfx, r, l)
	case ">=":
		g.emit("fle%s t0, %s, %s", sfx, r, l)
	}
}

func (g *codegen) genCast(from, to *CType) {
	if from == nil || to == nil || sameType(from, to) {
		return
	}
	switch {
	case from.IsInteger() && to.Kind == TyFloat:
		if from.Kind == TyUInt {
			g.emit("fcvt.s.wu ft0, t0")
		} else {
			g.emit("fcvt.s.w ft0, t0")
		}
	case from.IsInteger() && to.Kind == TyDouble:
		if from.Kind == TyUInt {
			g.emit("fcvt.d.wu ft0, t0")
		} else {
			g.emit("fcvt.d.w ft0, t0")
		}
	case from.Kind == TyFloat && to.IsInteger():
		if to.Kind == TyUInt {
			g.emit("fcvt.wu.s t0, ft0")
		} else {
			g.emit("fcvt.w.s t0, ft0")
		}
		g.truncToInt(to)
	case from.Kind == TyDouble && to.IsInteger():
		if to.Kind == TyUInt {
			g.emit("fcvt.wu.d t0, ft0")
		} else {
			g.emit("fcvt.w.d t0, ft0")
		}
		g.truncToInt(to)
	case from.Kind == TyFloat && to.Kind == TyDouble:
		g.emit("fcvt.d.s ft0, ft0")
	case from.Kind == TyDouble && to.Kind == TyFloat:
		g.emit("fcvt.s.d ft0, ft0")
	case from.IsInteger() && to.Kind == TyChar:
		g.truncToInt(to)
	default:
		// int<->uint<->ptr: same representation.
	}
}

func (g *codegen) truncToInt(to *CType) {
	if to.Kind == TyChar {
		g.emit("slli t0, t0, 24")
		g.emit("srai t0, t0, 24")
	}
}

func (g *codegen) genCall(e *Expr) {
	// Evaluate arguments left to right, parking each on the stack.
	for _, a := range e.Args {
		g.genExpr(a)
		g.push(a.Type)
	}
	// Pop into the argument registers, right to left.
	intN, fltN := 0, 0
	for _, a := range e.Args {
		if a.Type.IsFloat() {
			fltN++
		} else {
			intN++
		}
	}
	for i := len(e.Args) - 1; i >= 0; i-- {
		a := e.Args[i]
		if a.Type.IsFloat() {
			fltN--
			g.popInto(a.Type, "fa"+strconv.Itoa(fltN))
		} else {
			intN--
			g.popInto(nil, "a"+strconv.Itoa(intN))
		}
	}
	g.emit("call %s", e.Fn)
	if e.Type != nil && e.Type.IsFloat() {
		g.emit("%s ft0, fa0", fmvOp(e.Type))
	} else if e.Type != nil && e.Type.Kind != TyVoid {
		g.emit("mv t0, a0")
	}
}

func pickInt(c bool, a, b int) int {
	if c {
		return a
	}
	return b
}

func float32Bits(f float32) uint32 {
	return mathFloat32bits(f)
}
