package compiler

import "fmt"

// maxNesting bounds how deep a program may nest — parentheses, unary
// operators, casts, conditionals, assignments, statements inside
// statements — and how long an operator, index or call chain may grow.
// The parser follows the first kind frame by frame and builds the second
// into trees as deep as the chain is long, which sema, the folder, the
// unroller and the code generator then walk recursively: source text
// alone used to drive any of them past Go's stack limit, a fatal error no
// recover catches. The functions that can be active in themselves
// (parseStmt, parseAssignExpr, parseUnary, the else arm of parseCondExpr)
// and the loops that deepen a tree (operator, comma and postfix chains)
// each take a unit of the bound, so the tree parse returns is no deeper
// than maxNesting and the later walks need no bound of their own (the
// unroller adds one block per loop it unrolls, the folder only removes
// nodes). A level of parentheses costs two units — the expression inside
// and its first operand — so a thousand of them fit; hand-written and
// generated C stays far below that.
const maxNesting = 2000

// parser builds the AST via recursive descent with precedence climbing.
// It pulls tokens from the lexer as it goes and looks at most one token
// ahead.
type parser struct {
	lx        *lexer
	tok, peek Token // the current token and the one after it
	pos       int   // tokens consumed, for progress checks
	errs      DiagList
	// depth is the nesting at the current token: one per enter.
	depth   int
	tooDeep bool
}

// enter accounts for one more level of nesting and reports whether the
// bound still holds; either way the caller leaves the level when done.
// Past the bound it records the one diagnostic that matters and moves to
// the end of the input, so the frames above unwind without parsing — or
// reporting — anything further.
func (p *parser) enter() bool {
	p.depth++
	if p.depth > maxNesting && !p.tooDeep {
		p.errf(p.cur(), "program is nested too deeply (limit %d)", maxNesting)
		p.tooDeep = true
		for !p.at(TEOF) {
			p.next()
		}
	}
	return !p.tooDeep
}

func (p *parser) leave(levels int) { p.depth -= levels }

func parse(lx *lexer) (*Program, DiagList) {
	p := &parser{lx: lx}
	p.tok = lx.token()
	p.peek = lx.token()
	prog := &Program{}
	for !p.at(TEOF) {
		start := p.pos
		p.parseTopLevel(prog)
		if p.pos == start {
			// Ensure progress on malformed input.
			p.next()
		}
	}
	return prog, p.errs
}

func (p *parser) cur() Token        { return p.tok }
func (p *parser) at(k TokKind) bool { return p.cur().Kind == k }

func (p *parser) isPunct(s string) bool {
	t := p.cur()
	return t.Kind == TPunct && t.Text == s
}

func (p *parser) isKeyword(s string) bool {
	t := p.cur()
	return t.Kind == TKeyword && t.Text == s
}

func (p *parser) next() Token {
	t := p.tok
	if t.Kind != TEOF {
		p.tok, p.peek = p.peek, p.lx.token()
		p.pos++
	}
	return t
}

func (p *parser) errf(t Token, format string, args ...any) {
	if p.tooDeep {
		return // fallout of abandoning the parse, not the program's fault
	}
	p.errs = append(p.errs, &Diag{Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...)})
}

func (p *parser) expect(s string) bool {
	if p.isPunct(s) {
		p.next()
		return true
	}
	p.errf(p.cur(), "expected %q, got %q", s, p.cur().Text)
	return false
}

// skipTo advances past the next occurrence of any of the given punctuators
// (error recovery).
func (p *parser) skipTo(stops ...string) {
	depth := 0
	for !p.at(TEOF) {
		t := p.cur()
		if t.Kind == TPunct {
			switch t.Text {
			case "{":
				depth++
			case "}":
				if depth > 0 {
					depth--
				} else {
					return
				}
			}
			if depth == 0 {
				for _, s := range stops {
					if t.Text == s {
						p.next()
						return
					}
				}
			}
		}
		p.next()
	}
}

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

// parseBaseType parses the type-specifier part (int, unsigned, float...).
func (p *parser) parseBaseType() (*CType, bool) {
	t := p.cur()
	if t.Kind != TKeyword {
		return nil, false
	}
	switch t.Text {
	case "const", "static":
		p.next()
		return p.parseBaseType()
	case "void":
		p.next()
		return typeVoid, true
	case "char":
		p.next()
		return typeChar, true
	case "int":
		p.next()
		return typeInt, true
	case "long", "short":
		p.next()
		if p.isKeyword("int") {
			p.next()
		}
		return typeInt, true
	case "unsigned":
		p.next()
		if p.isKeyword("int") || p.isKeyword("char") || p.isKeyword("long") {
			p.next()
		}
		return typeUInt, true
	case "float":
		p.next()
		return typeFloat, true
	case "double":
		p.next()
		return typeDouble, true
	case "struct", "union", "enum", "typedef", "switch", "goto":
		p.errf(t, "%q is not supported by this C subset", t.Text)
		p.next()
		return nil, false
	default:
		return nil, false
	}
}

// parseDeclarator parses "*"* name ["[N]"].
func (p *parser) parseDeclarator(base *CType) (string, *CType, Token) {
	ty := base
	for p.isPunct("*") {
		p.next()
		ty = ptrTo(ty)
	}
	nameTok := p.cur()
	name := ""
	if p.at(TIdent) {
		name = p.next().Text
	} else {
		p.errf(nameTok, "expected identifier, got %q", nameTok.Text)
	}
	for p.isPunct("[") {
		p.next()
		n := 0
		if p.at(TIntLit) {
			n = int(p.next().Int)
		} else if !p.isPunct("]") {
			p.errf(p.cur(), "array length must be an integer constant")
			p.skipTo("]")
			return name, ty, nameTok
		}
		p.expect("]")
		ty = arrayOf(ty, n)
	}
	return name, ty, nameTok
}

func (p *parser) parseTopLevel(prog *Program) {
	extern := false
	for p.isKeyword("extern") || p.isKeyword("static") {
		if p.cur().Text == "extern" {
			extern = true
		}
		p.next()
	}
	base, ok := p.parseBaseType()
	if !ok {
		p.errf(p.cur(), "expected declaration, got %q", p.cur().Text)
		p.skipTo(";")
		return
	}
	name, ty, nameTok := p.parseDeclarator(base)

	if p.isPunct("(") {
		p.parseFunc(prog, name, ty, nameTok)
		return
	}

	// Global variable(s).
	for {
		vd := &VarDecl{Name: name, Type: ty, Extern: extern, Line: nameTok.Line}
		if p.isPunct("=") {
			p.next()
			if p.isPunct("{") {
				vd.Inits = p.parseInitList()
			} else {
				vd.Init = p.parseAssignExpr()
			}
		}
		prog.Globals = append(prog.Globals, vd)
		if p.isPunct(",") {
			p.next()
			name, ty, nameTok = p.parseDeclarator(base)
			continue
		}
		break
	}
	p.expect(";")
}

func (p *parser) parseInitList() []*Expr {
	p.expect("{")
	var inits []*Expr
	for !p.isPunct("}") && !p.at(TEOF) {
		inits = append(inits, p.parseAssignExpr())
		if p.isPunct(",") {
			p.next()
		} else {
			break
		}
	}
	p.expect("}")
	return inits
}

func (p *parser) parseFunc(prog *Program, name string, ret *CType, nameTok Token) {
	p.expect("(")
	fd := &FuncDecl{Name: name, Ret: ret, Line: nameTok.Line}
	if p.isKeyword("void") && p.peek.Text == ")" {
		p.next()
	}
	for !p.isPunct(")") && !p.at(TEOF) {
		base, ok := p.parseBaseType()
		if !ok {
			p.errf(p.cur(), "expected parameter type, got %q", p.cur().Text)
			p.skipTo(")")
			break
		}
		pname, pty, ptok := p.parseDeclarator(base)
		if pty.Kind == TyArray {
			// Array parameters decay to pointers.
			pty = ptrTo(pty.Elem)
		}
		fd.Params = append(fd.Params, &VarDecl{Name: pname, Type: pty, Line: ptok.Line})
		if p.isPunct(",") {
			p.next()
		} else {
			break
		}
	}
	p.expect(")")
	if p.isPunct(";") {
		// Prototype: record as a function with nil body.
		p.next()
		fd.Body = nil
		prog.Funcs = append(prog.Funcs, fd)
		return
	}
	fd.Body = p.parseBlock()
	prog.Funcs = append(prog.Funcs, fd)
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

func (p *parser) parseBlock() *Stmt {
	line := p.cur().Line
	p.expect("{")
	blk := &Stmt{Kind: SBlock, Line: line}
	for !p.isPunct("}") && !p.at(TEOF) {
		start := p.pos
		blk.Body = append(blk.Body, p.parseStmt())
		if p.pos == start {
			p.next()
		}
	}
	p.expect("}")
	return blk
}

func (p *parser) parseStmt() *Stmt {
	t := p.cur()
	defer p.leave(1)
	if !p.enter() {
		return &Stmt{Kind: SEmpty, Line: t.Line}
	}
	switch {
	case p.isPunct("{"):
		return p.parseBlock()
	case p.isPunct(";"):
		p.next()
		return &Stmt{Kind: SEmpty, Line: t.Line}
	case p.isKeyword("if"):
		p.next()
		p.expect("(")
		cond := p.parseExpr()
		p.expect(")")
		then := p.parseStmt()
		var els *Stmt
		if p.isKeyword("else") {
			p.next()
			els = p.parseStmt()
		}
		return &Stmt{Kind: SIf, Cond: cond, Then: then, Else: els, Line: t.Line}
	case p.isKeyword("while"):
		p.next()
		p.expect("(")
		cond := p.parseExpr()
		p.expect(")")
		body := p.parseStmt()
		return &Stmt{Kind: SWhile, Cond: cond, Then: body, Line: t.Line}
	case p.isKeyword("do"):
		p.next()
		body := p.parseStmt()
		if !p.isKeyword("while") {
			p.errf(p.cur(), "expected `while` after do-body")
		} else {
			p.next()
		}
		p.expect("(")
		cond := p.parseExpr()
		p.expect(")")
		p.expect(";")
		return &Stmt{Kind: SDoWhile, Cond: cond, Then: body, Line: t.Line}
	case p.isKeyword("for"):
		p.next()
		p.expect("(")
		var init *Stmt
		if !p.isPunct(";") {
			if _, isType := p.peekType(); isType {
				init = p.parseDeclStmt()
			} else {
				e := p.parseExpr()
				p.expect(";")
				init = &Stmt{Kind: SExpr, Expr: e, Line: t.Line}
			}
		} else {
			p.next()
		}
		var cond *Expr
		if !p.isPunct(";") {
			cond = p.parseExpr()
		}
		p.expect(";")
		var post *Expr
		if !p.isPunct(")") {
			post = p.parseExpr()
		}
		p.expect(")")
		body := p.parseStmt()
		return &Stmt{Kind: SFor, Init: init, Cond: cond, Post: post, Then: body, Line: t.Line}
	case p.isKeyword("return"):
		p.next()
		var e *Expr
		if !p.isPunct(";") {
			e = p.parseExpr()
		}
		p.expect(";")
		return &Stmt{Kind: SReturn, Expr: e, Line: t.Line}
	case p.isKeyword("break"):
		p.next()
		p.expect(";")
		return &Stmt{Kind: SBreak, Line: t.Line}
	case p.isKeyword("continue"):
		p.next()
		p.expect(";")
		return &Stmt{Kind: SContinue, Line: t.Line}
	default:
		if _, isType := p.peekType(); isType {
			return p.parseDeclStmt()
		}
		e := p.parseExpr()
		p.expect(";")
		return &Stmt{Kind: SExpr, Expr: e, Line: t.Line}
	}
}

// peekType reports whether a type specifier starts here (without consuming).
func (p *parser) peekType() (*CType, bool) {
	t := p.cur()
	if t.Kind != TKeyword {
		return nil, false
	}
	switch t.Text {
	case "void", "char", "int", "unsigned", "float", "double", "long", "short", "const":
		return nil, true
	}
	return nil, false
}

func (p *parser) parseDeclStmt() *Stmt {
	line := p.cur().Line
	base, ok := p.parseBaseType()
	if !ok {
		p.skipTo(";")
		return &Stmt{Kind: SEmpty, Line: line}
	}
	blk := &Stmt{Kind: SBlock, Line: line}
	for {
		name, ty, nameTok := p.parseDeclarator(base)
		vd := &VarDecl{Name: name, Type: ty, Line: nameTok.Line}
		if p.isPunct("=") {
			p.next()
			if p.isPunct("{") {
				vd.Inits = p.parseInitList()
			} else {
				vd.Init = p.parseAssignExpr()
			}
		}
		blk.Body = append(blk.Body, &Stmt{Kind: SDecl, Decl: vd, Line: nameTok.Line})
		if p.isPunct(",") {
			p.next()
			continue
		}
		break
	}
	p.expect(";")
	if len(blk.Body) == 1 {
		return blk.Body[0]
	}
	return blk
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)
// ---------------------------------------------------------------------------

func (p *parser) parseExpr() *Expr {
	e := p.parseAssignExpr()
	links := 0
	for p.isPunct(",") {
		links++
		if !p.enter() {
			break
		}
		p.next()
		r := p.parseAssignExpr()
		e = &Expr{Kind: EBinary, Op: ",", L: e, R: r, Line: e.Line, Col: e.Col}
	}
	p.leave(links)
	return e
}

var compoundOps = map[string]string{
	"+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
	"<<=": "<<", ">>=": ">>", "&=": "&", "|=": "|", "^=": "^",
}

func (p *parser) parseAssignExpr() *Expr {
	defer p.leave(1)
	if !p.enter() {
		return &Expr{Kind: EIntLit, Line: p.cur().Line, Col: p.cur().Col}
	}
	lhs := p.parseCondExpr()
	t := p.cur()
	if t.Kind != TPunct {
		return lhs
	}
	if t.Text == "=" {
		p.next()
		rhs := p.parseAssignExpr()
		return &Expr{Kind: EAssign, L: lhs, R: rhs, Line: t.Line, Col: t.Col}
	}
	if op, ok := compoundOps[t.Text]; ok {
		p.next()
		rhs := p.parseAssignExpr()
		// Desugar a op= b into a = a op b. The subset's lvalues
		// (identifiers, dereferences, indexing) are evaluated twice;
		// their side-effect-free forms make this safe.
		sum := &Expr{Kind: EBinary, Op: op, L: lhs, R: rhs, Line: t.Line, Col: t.Col}
		return &Expr{Kind: EAssign, L: lhs, R: sum, Line: t.Line, Col: t.Col}
	}
	return lhs
}

func (p *parser) parseCondExpr() *Expr {
	cond := p.parseBinary(0)
	if !p.isPunct("?") {
		return cond
	}
	t := p.next()
	then := p.parseExpr()
	p.expect(":")
	defer p.leave(1)
	if !p.enter() { // a chain of conditionals nests to the right
		return cond
	}
	els := p.parseCondExpr()
	return &Expr{Kind: ECond, L: cond, R: then, R2: els, Line: t.Line, Col: t.Col}
}

// binary operator precedence (C levels, high binds tighter).
var binPrec = map[string]int{
	"*": 10, "/": 10, "%": 10,
	"+": 9, "-": 9,
	"<<": 8, ">>": 8,
	"<": 7, "<=": 7, ">": 7, ">=": 7,
	"==": 6, "!=": 6,
	"&": 5, "^": 4, "|": 3,
	"&&": 2, "||": 1,
}

func (p *parser) parseBinary(minPrec int) *Expr {
	lhs := p.parseUnary()
	links := 0
	for {
		t := p.cur()
		prec, ok := binPrec[t.Text]
		if t.Kind != TPunct || !ok || prec < minPrec {
			break
		}
		links++
		if !p.enter() {
			break
		}
		p.next()
		rhs := p.parseBinary(prec + 1)
		lhs = &Expr{Kind: EBinary, Op: t.Text, L: lhs, R: rhs, Line: t.Line, Col: t.Col}
	}
	p.leave(links)
	return lhs
}

func (p *parser) parseUnary() *Expr {
	t := p.cur()
	defer p.leave(1)
	if !p.enter() {
		return &Expr{Kind: EIntLit, Line: t.Line, Col: t.Col}
	}
	if t.Kind == TPunct {
		switch t.Text {
		case "-", "!", "~":
			p.next()
			e := p.parseUnary()
			return &Expr{Kind: EUnary, Op: t.Text, L: e, Line: t.Line, Col: t.Col}
		case "+":
			p.next()
			return p.parseUnary()
		case "*":
			p.next()
			e := p.parseUnary()
			return &Expr{Kind: EDeref, L: e, Line: t.Line, Col: t.Col}
		case "&":
			p.next()
			e := p.parseUnary()
			return &Expr{Kind: EAddr, L: e, Line: t.Line, Col: t.Col}
		case "++", "--":
			p.next()
			e := p.parseUnary()
			op := "+"
			if t.Text == "--" {
				op = "-"
			}
			return &Expr{Kind: EPreIncr, Op: op, L: e, Line: t.Line, Col: t.Col}
		case "(":
			// Cast or parenthesized expression.
			if startsType(p.peek) {
				p.next() // (
				base, _ := p.parseBaseType()
				cast := base
				for p.isPunct("*") {
					p.next()
					cast = ptrTo(cast)
				}
				p.expect(")")
				e := p.parseUnary()
				return &Expr{Kind: ECast, Cast: cast, L: e, Line: t.Line, Col: t.Col}
			}
		}
	}
	if t.Kind == TKeyword && t.Text == "sizeof" {
		p.next()
		if p.isPunct("(") {
			if startsType(p.peek) {
				p.next()
				base, _ := p.parseBaseType()
				ty := base
				for p.isPunct("*") {
					p.next()
					ty = ptrTo(ty)
				}
				p.expect(")")
				return &Expr{Kind: ESizeof, Cast: ty, Line: t.Line, Col: t.Col}
			}
		}
		e := p.parseUnary()
		return &Expr{Kind: ESizeof, L: e, Line: t.Line, Col: t.Col}
	}
	return p.parsePostfix()
}

// startsType reports whether t begins a type name.
func startsType(t Token) bool {
	if t.Kind != TKeyword {
		return false
	}
	switch t.Text {
	case "void", "char", "int", "unsigned", "float", "double", "long", "short", "const":
		return true
	}
	return false
}

func (p *parser) parsePostfix() *Expr {
	e := p.parsePrimary()
	links := 0
	defer func() { p.leave(links) }()
	for {
		t := p.cur()
		if t.Kind != TPunct {
			return e
		}
		links++
		if !p.enter() {
			return e
		}
		switch t.Text {
		case "[":
			p.next()
			idx := p.parseExpr()
			p.expect("]")
			e = &Expr{Kind: EIndex, L: e, R: idx, Line: t.Line, Col: t.Col}
		case "(":
			if e.Kind != EVar {
				p.errf(t, "only direct calls to named functions are supported")
			}
			p.next()
			call := &Expr{Kind: ECall, Fn: e.Name, Line: t.Line, Col: t.Col}
			for !p.isPunct(")") && !p.at(TEOF) {
				call.Args = append(call.Args, p.parseAssignExpr())
				if p.isPunct(",") {
					p.next()
				} else {
					break
				}
			}
			p.expect(")")
			e = call
		case "++", "--":
			p.next()
			op := "+"
			if t.Text == "--" {
				op = "-"
			}
			e = &Expr{Kind: EPostIncr, Op: op, L: e, Line: t.Line, Col: t.Col}
		default:
			return e
		}
	}
}

func (p *parser) parsePrimary() *Expr {
	t := p.cur()
	switch t.Kind {
	case TIntLit, TCharLit:
		p.next()
		e := &Expr{Kind: EIntLit, Int: t.Int, Line: t.Line, Col: t.Col}
		if t.Unsigned {
			e.Type = typeUInt
		}
		return e
	case TFloatLit:
		p.next()
		return &Expr{Kind: EFloatLit, Flt: t.Flt, Line: t.Line, Col: t.Col}
	case TIdent:
		p.next()
		return &Expr{Kind: EVar, Name: t.Text, Line: t.Line, Col: t.Col}
	case TStringLit:
		p.errf(t, "string literals are not supported by this C subset")
		p.next()
		return &Expr{Kind: EIntLit, Int: 0, Line: t.Line, Col: t.Col}
	case TPunct:
		if t.Text == "(" {
			p.next()
			e := p.parseExpr()
			p.expect(")")
			return e
		}
	}
	p.errf(t, "unexpected %q in expression", t.Text)
	p.next()
	return &Expr{Kind: EIntLit, Int: 0, Line: t.Line, Col: t.Col}
}
