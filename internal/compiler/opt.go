package compiler

import (
	"cmp"
	"math"
	"strings"
)

func mathFloat32bits(f float32) uint32 { return math.Float32bits(f) }

// ---------------------------------------------------------------------------
// O1: constant folding
// ---------------------------------------------------------------------------

// foldProgram folds constant subexpressions in every function body and
// global initializer.
func foldProgram(ast *Program) {
	for _, g := range ast.Globals {
		if g.Init != nil {
			foldExpr(g.Init)
		}
		for _, e := range g.Inits {
			foldExpr(e)
		}
	}
	for _, f := range ast.Funcs {
		foldStmt(f.Body)
	}
}

func foldStmt(st *Stmt) {
	if st == nil {
		return
	}
	foldExpr(st.Expr)
	foldExpr(st.Cond)
	foldExpr(st.Post)
	if st.Decl != nil {
		foldExpr(st.Decl.Init)
		for _, e := range st.Decl.Inits {
			foldExpr(e)
		}
	}
	foldStmt(st.Init)
	foldStmt(st.Then)
	foldStmt(st.Else)
	for _, c := range st.Body {
		foldStmt(c)
	}
}

// foldExpr rewrites e in place when it reduces to a literal, and applies
// algebraic identities (x+0, x*1, and x*0 when x has no side effect).
func foldExpr(e *Expr) {
	if e == nil {
		return
	}
	foldExpr(e.L)
	foldExpr(e.R)
	foldExpr(e.R2)
	for _, a := range e.Args {
		foldExpr(a)
	}
	switch e.Kind {
	case EBinary:
		foldBinary(e)
	case EUnary:
		if e.L.Kind == EIntLit {
			switch e.Op {
			case "-":
				replaceInt(e, -e.L.Int)
			case "!":
				replaceInt(e, boolToInt(e.L.Int == 0))
			case "~":
				replaceInt(e, int64(^int32(e.L.Int)))
			}
		} else if e.L.Kind == EFloatLit && e.Op == "-" {
			replaceFloat(e, -e.L.Flt)
		}
	case ECast:
		// Fold numeric casts of literals.
		if e.Cast == nil || e.L == nil {
			return
		}
		if e.L.Kind == EIntLit && e.Cast.IsInteger() {
			v := e.L.Int
			if e.Cast.Kind == TyChar {
				v = int64(int8(v))
			}
			replaceInt(e, v)
		} else if e.L.Kind == EIntLit && e.Cast.IsFloat() {
			replaceFloat(e, float64(e.L.Int))
		} else if e.L.Kind == EFloatLit && e.Cast.IsInteger() {
			replaceInt(e, int64(int32(e.L.Flt)))
		} else if e.L.Kind == EFloatLit && e.Cast.IsFloat() {
			replaceFloat(e, e.L.Flt)
		}
	}
}

func replaceInt(e *Expr, v int64) {
	ty := e.Type
	*e = Expr{Kind: EIntLit, Int: int64(int32(v)), Type: ty, Line: e.Line, Col: e.Col}
}

// replaceFloat rewrites e as the literal v, rounded to float32 when e is
// float-typed: a fold computes what the run would, one rounding per
// operation, so -O1 and up agree with -O0.
func replaceFloat(e *Expr, v float64) {
	ty := e.Type
	if ty != nil && ty.Kind == TyFloat {
		v = float64(float32(v))
	}
	*e = Expr{Kind: EFloatLit, Flt: v, Type: ty, Line: e.Line, Col: e.Col}
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func foldBinary(e *Expr) {
	l, r := e.L, e.R
	// Integer constant folding.
	if l.Kind == EIntLit && r.Kind == EIntLit && e.Type != nil && e.Type.IsInteger() {
		a, b := int32(l.Int), int32(r.Int)
		ua, ub := uint32(a), uint32(b)
		uns := unsignedOp(e)
		var v int64
		switch e.Op {
		case "+":
			v = int64(a + b)
		case "-":
			v = int64(a - b)
		case "*":
			v = int64(a * b)
		case "/":
			if b == 0 {
				return // leave for runtime exception
			}
			if v = int64(a / b); uns {
				v = int64(ua / ub)
			}
		case "%":
			if b == 0 {
				return
			}
			if v = int64(a % b); uns {
				v = int64(ua % ub)
			}
		case "&":
			v = int64(a & b)
		case "|":
			v = int64(a | b)
		case "^":
			v = int64(a ^ b)
		case "<<":
			v = int64(a << (uint32(b) & 31))
		case ">>":
			if v = int64(a >> (ub & 31)); uns {
				v = int64(ua >> (ub & 31))
			}
		case "==":
			v = boolToInt(a == b)
		case "!=":
			v = boolToInt(a != b)
		case "<", "<=", ">", ">=":
			order := cmp.Compare(a, b)
			if uns {
				order = cmp.Compare(ua, ub)
			}
			switch e.Op {
			case "<":
				v = boolToInt(order < 0)
			case "<=":
				v = boolToInt(order <= 0)
			case ">":
				v = boolToInt(order > 0)
			default:
				v = boolToInt(order >= 0)
			}
		case "&&":
			v = boolToInt(a != 0 && b != 0)
		case "||":
			v = boolToInt(a != 0 || b != 0)
		default:
			return
		}
		replaceInt(e, v)
		return
	}
	// Float constant folding for + - * /.
	if l.Kind == EFloatLit && r.Kind == EFloatLit {
		var v float64
		switch e.Op {
		case "+":
			v = l.Flt + r.Flt
		case "-":
			v = l.Flt - r.Flt
		case "*":
			v = l.Flt * r.Flt
		case "/":
			if r.Flt == 0 {
				return
			}
			v = l.Flt / r.Flt
		default:
			return
		}
		replaceFloat(e, v)
		return
	}
	// Algebraic identities (integer only; pointer arithmetic excluded).
	if e.Type != nil && e.Type.IsInteger() {
		if r.Kind == EIntLit {
			switch {
			case r.Int == 0 && (e.Op == "+" || e.Op == "-" || e.Op == "|" || e.Op == "^" || e.Op == "<<" || e.Op == ">>"):
				*e = *l
			case r.Int == 1 && (e.Op == "*" || e.Op == "/"):
				*e = *l
			case r.Int == 0 && e.Op == "*" && pure(l):
				replaceInt(e, 0)
			}
			return
		}
		if l.Kind == EIntLit {
			switch {
			case l.Int == 0 && (e.Op == "+" || e.Op == "|" || e.Op == "^"):
				*e = *r
			case l.Int == 1 && e.Op == "*":
				*e = *r
			case l.Int == 0 && e.Op == "*" && pure(r):
				replaceInt(e, 0)
			}
		}
	}
}

// pure reports whether evaluating e has no side effect — no assignment,
// increment or call anywhere in it — so an identity may drop it.
func pure(e *Expr) bool {
	if e == nil {
		return true
	}
	switch e.Kind {
	case EAssign, ECall, EPreIncr, EPostIncr:
		return false
	}
	return pure(e.L) && pure(e.R) && pure(e.R2)
}

// ---------------------------------------------------------------------------
// O3: loop unrolling
// ---------------------------------------------------------------------------

// maxUnrollTrips bounds full unrolling.
const maxUnrollTrips = 16

// unrollProgram fully unrolls `for` loops with a recognizable constant
// trip count: for (i = C0; i < C1; i++) or i += C. The body is replicated
// trip-count times followed by the post expression, preserving semantics
// for bodies without break/continue.
func unrollProgram(ast *Program) {
	for _, f := range ast.Funcs {
		unrollStmt(f.Body)
	}
}

func unrollStmt(st *Stmt) {
	if st == nil {
		return
	}
	for _, c := range st.Body {
		unrollStmt(c)
	}
	unrollStmt(st.Init)
	unrollStmt(st.Then)
	unrollStmt(st.Else)

	if st.Kind != SFor {
		return
	}
	trips, ok := tripCount(st)
	if !ok || trips < 0 || trips > maxUnrollTrips {
		return
	}
	if hasLoopEscape(st.Then) {
		return
	}
	// Replace the loop with: init; (body; post;) * trips
	body := []*Stmt{}
	if st.Init != nil {
		body = append(body, st.Init)
	}
	for k := 0; k < trips; k++ {
		body = append(body, st.Then)
		if st.Post != nil {
			body = append(body, &Stmt{Kind: SExpr, Expr: st.Post, Line: st.Line})
		}
	}
	*st = Stmt{Kind: SBlock, Body: body, Line: st.Line}
}

// tripCount recognizes for (i = C0; i < C1; i++/i+=C) patterns.
func tripCount(st *Stmt) (int, bool) {
	if st.Init == nil || st.Cond == nil || st.Post == nil {
		return 0, false
	}
	// Init: i = C0 (expression or declaration).
	var ivar *Symbol
	var start int64
	switch {
	case st.Init.Kind == SExpr && st.Init.Expr.Kind == EAssign &&
		st.Init.Expr.L.Kind == EVar && st.Init.Expr.R.Kind == EIntLit:
		ivar = st.Init.Expr.L.Sym
		start = st.Init.Expr.R.Int
	case st.Init.Kind == SDecl && st.Init.Decl.Init != nil &&
		st.Init.Decl.Init.Kind == EIntLit:
		ivar = st.Init.Decl.Sym
		start = st.Init.Decl.Init.Int
	default:
		return 0, false
	}
	if ivar == nil {
		return 0, false
	}
	// Cond: i < C1  or i <= C1.
	c := st.Cond
	if c.Kind != EBinary || c.L.Kind != EVar || c.L.Sym != ivar || c.R.Kind != EIntLit {
		return 0, false
	}
	limit := c.R.Int
	if c.Op == "<=" {
		limit++
	} else if c.Op != "<" {
		return 0, false
	}
	// Post: i++ / ++i / i = i + C / i += C (desugared to i = i + C).
	step := int64(0)
	p := st.Post
	switch {
	case (p.Kind == EPreIncr || p.Kind == EPostIncr) && p.L.Kind == EVar && p.L.Sym == ivar:
		step = 1
		if p.Op == "-" {
			step = -1
		}
	case p.Kind == EAssign && p.L.Kind == EVar && p.L.Sym == ivar &&
		p.R.Kind == EBinary && p.R.Op == "+" &&
		p.R.L.Kind == EVar && p.R.L.Sym == ivar && p.R.R.Kind == EIntLit:
		step = p.R.R.Int
	default:
		return 0, false
	}
	if step <= 0 {
		return 0, false
	}
	// The body must not modify i.
	if modifiesVar(st.Then, ivar) {
		return 0, false
	}
	if limit <= start {
		return 0, true
	}
	trips := (limit - start + step - 1) / step
	return int(trips), true
}

func hasLoopEscape(st *Stmt) bool {
	if st == nil {
		return false
	}
	switch st.Kind {
	case SBreak, SContinue, SReturn:
		return true
	case SWhile, SDoWhile, SFor:
		// Inner loops own their break/continue; but a return still
		// escapes. Conservatively refuse nested loops.
		return true
	}
	for _, c := range st.Body {
		if hasLoopEscape(c) {
			return true
		}
	}
	return hasLoopEscape(st.Init) || hasLoopEscape(st.Then) || hasLoopEscape(st.Else)
}

// modifiesVar reports whether the statement assigns to sym.
func modifiesVar(st *Stmt, sym *Symbol) bool {
	found := false
	var walkE func(e *Expr)
	walkE = func(e *Expr) {
		if e == nil || found {
			return
		}
		if (e.Kind == EAssign || e.Kind == EPreIncr || e.Kind == EPostIncr) &&
			e.L != nil && e.L.Kind == EVar && e.L.Sym == sym {
			found = true
			return
		}
		if e.Kind == EAddr && e.L != nil && e.L.Kind == EVar && e.L.Sym == sym {
			found = true // address escape: anything can happen
			return
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
		if s == nil || found {
			return
		}
		walkE(s.Expr)
		walkE(s.Cond)
		walkE(s.Post)
		if s.Decl != nil {
			walkE(s.Decl.Init)
		}
		walkS(s.Init)
		walkS(s.Then)
		walkS(s.Else)
		for _, c := range s.Body {
			walkS(c)
		}
	}
	walkS(st)
	return found
}

// ---------------------------------------------------------------------------
// O2: peephole
// ---------------------------------------------------------------------------

// peephole performs local cleanups on the emitted assembly:
//   - push/pop pairs with no intervening sp use become register moves
//   - `mv x, x` disappears
//   - jumps to the immediately following label disappear
func (g *codegen) peephole() {
	changed := true
	for changed {
		changed = g.peepholeOnce()
	}
}

func (g *codegen) peepholeOnce() bool {
	out := g.lines
	changed := false
	// The pass writes no more lines than it has read, so it compacts in
	// place.
	res := out[:0]
	for i := 0; i < len(out); i++ {
		l := out[i]
		// Pattern: addi sp, sp, -4 / sw t0, 0(sp) / <X: no sp, no t1 write... too risky>
		// Safe adjacent pattern: push immediately followed by the
		// matching pop (value round-trips through memory):
		//   addi sp, sp, -4; sw R, 0(sp); [mv t1, t0]? ; lw R2, 0(sp); addi sp, sp, 4
		if strings.HasPrefix(l.text, "addi sp, sp, -") && i+3 < len(out) {
			sw := out[i+1].text
			if strings.HasPrefix(sw, "sw ") && strings.HasSuffix(sw, ", 0(sp)") {
				src := strings.TrimSuffix(strings.TrimPrefix(sw, "sw "), ", 0(sp)")
				j := i + 2
				var midBuf [2]textLine
				mid := midBuf[:0]
				// Allow one intervening `mv` or `li` that doesn't
				// touch sp or the pushed value's source register.
				for j < len(out) && len(mid) < 2 {
					t := out[j].text
					if strings.HasPrefix(t, "lw ") && strings.HasSuffix(t, ", 0(sp)") {
						break
					}
					if (strings.HasPrefix(t, "mv ") || strings.HasPrefix(t, "li ")) &&
						!strings.Contains(t, "sp") && !touchesReg(t, src) {
						mid = append(mid, out[j])
						j++
						continue
					}
					break
				}
				if j+1 < len(out) && strings.HasPrefix(out[j].text, "lw ") &&
					strings.HasSuffix(out[j].text, ", 0(sp)") &&
					out[j+1].text == "addi sp, sp, 4" {
					dst := strings.TrimSuffix(strings.TrimPrefix(out[j].text, "lw "), ", 0(sp)")
					if !midWrites(mid, dst) {
						res = append(res, mid...)
						if dst != src {
							res = append(res, textLine{text: "mv " + dst + ", " + src, cline: l.cline})
						}
						i = j + 1
						changed = true
						continue
					}
				}
			}
		}
		// mv x, x
		if strings.HasPrefix(l.text, "mv ") {
			if dst, src, ok := strings.Cut(strings.TrimPrefix(l.text, "mv "), ", "); ok && dst == src {
				changed = true
				continue
			}
		}
		// j L immediately followed by L:
		if strings.HasPrefix(l.text, "j ") && i+1 < len(out) {
			label := strings.TrimPrefix(l.text, "j ") + ":"
			if out[i+1].text == label {
				changed = true
				continue
			}
		}
		res = append(res, l)
	}
	g.lines = res
	return changed
}

// touchesReg reports whether the instruction text writes the named register
// (first operand).
func touchesReg(text, reg string) bool {
	_, ops, ok := strings.Cut(text, " ")
	if !ok {
		return false
	}
	first, _, _ := strings.Cut(ops, ",")
	return strings.TrimSpace(first) == reg
}

func midWrites(mid []textLine, reg string) bool {
	for _, m := range mid {
		if touchesReg(m.text, reg) {
			return true
		}
	}
	return false
}
