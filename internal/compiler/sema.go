package compiler

import "fmt"

// sema resolves names, checks types and annotates the AST. It implements
// the conversions the code generator relies on: usual arithmetic
// promotion, array-to-pointer decay and pointer arithmetic scaling.
type sema struct {
	prog   *program
	scopes []map[string]*Symbol
	funcs  map[string]*FuncDecl
	errs   DiagList
	cur    *FuncDecl
	locals []*Symbol // collected per function for frame layout
}

// program wraps the AST with resolution results.
type program struct {
	ast *Program
	// funcLocals maps function name to its local symbols (frame layout).
	funcLocals map[string][]*Symbol
}

func analyze(ast *Program) (*program, DiagList) {
	s := &sema{
		prog:  &program{ast: ast, funcLocals: map[string][]*Symbol{}},
		funcs: map[string]*FuncDecl{},
	}
	s.push()
	for _, f := range ast.Funcs {
		if prev, dup := s.funcs[f.Name]; dup && prev.Body != nil && f.Body != nil {
			s.errf(f.Line, 1, "function %q redefined", f.Name)
		}
		if old, ok := s.funcs[f.Name]; !ok || old.Body == nil {
			s.funcs[f.Name] = f
		}
	}
	for _, g := range ast.Globals {
		if g.Name == "" {
			continue
		}
		if _, dup := s.scopes[0][g.Name]; dup {
			s.errf(g.Line, 1, "global %q redefined", g.Name)
			continue
		}
		if _, clash := s.funcs[g.Name]; clash {
			// Both would be one assembly label: the later of the global
			// and the function's first declaration is the redeclaration.
			line := g.Line
			for _, f := range ast.Funcs {
				if f.Name == g.Name {
					line = max(line, f.Line)
					break
				}
			}
			s.errf(line, 1, "%q redeclared as a different kind of symbol", g.Name)
			continue
		}
		sym := &Symbol{Name: g.Name, Kind: SymGlobal, Type: g.Type, Extern: g.Extern}
		g.Sym = sym
		s.scopes[0][g.Name] = sym
		if g.Init != nil {
			s.expr(g.Init)
			decay(g.Init)
			s.convertTo(g.Init, scalarOf(g.Type), g.Line)
		}
		for _, e := range g.Inits {
			s.expr(e)
		}
	}
	for _, f := range ast.Funcs {
		if f.Body != nil {
			s.checkFunc(f)
		}
	}
	return s.prog, s.errs
}

func scalarOf(t *CType) *CType {
	if t.Kind == TyArray {
		return t.Elem
	}
	return t
}

func (s *sema) errf(line, col int, format string, args ...any) {
	s.errs = append(s.errs, &Diag{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)})
}

func (s *sema) push() { s.scopes = append(s.scopes, map[string]*Symbol{}) }
func (s *sema) pop()  { s.scopes = s.scopes[:len(s.scopes)-1] }

func (s *sema) define(sym *Symbol, line int) {
	top := s.scopes[len(s.scopes)-1]
	if _, dup := top[sym.Name]; dup {
		s.errf(line, 1, "%q redeclared in this scope", sym.Name)
	}
	top[sym.Name] = sym
	if sym.Kind == SymLocal || sym.Kind == SymParam {
		s.locals = append(s.locals, sym)
	}
}

func (s *sema) lookup(name string) *Symbol {
	for i := len(s.scopes) - 1; i >= 0; i-- {
		if sym, ok := s.scopes[i][name]; ok {
			return sym
		}
	}
	return nil
}

func (s *sema) checkFunc(f *FuncDecl) {
	s.cur = f
	s.locals = nil
	s.push()
	for _, prm := range f.Params {
		sym := &Symbol{Name: prm.Name, Kind: SymParam, Type: prm.Type}
		prm.Sym = sym
		s.define(sym, prm.Line)
	}
	s.stmt(f.Body)
	s.pop()
	s.prog.funcLocals[f.Name] = s.locals
	s.cur = nil
}

func (s *sema) stmt(st *Stmt) {
	if st == nil {
		return
	}
	switch st.Kind {
	case SBlock:
		s.push()
		for _, c := range st.Body {
			s.stmt(c)
		}
		s.pop()
	case SDecl:
		d := st.Decl
		sym := &Symbol{Name: d.Name, Kind: SymLocal, Type: d.Type}
		d.Sym = sym
		if d.Init != nil {
			s.expr(d.Init)
			decay(d.Init)
			s.convertTo(d.Init, scalarOf(d.Type), d.Line)
		}
		for _, e := range d.Inits {
			s.expr(e)
		}
		if len(d.Inits) > 0 && d.Type.Kind != TyArray {
			s.errf(d.Line, 1, "initializer list on non-array %q", d.Name)
		}
		if d.Type.Kind == TyArray && d.Type.Len == 0 {
			if len(d.Inits) > 0 {
				d.Type.Len = len(d.Inits)
			} else {
				s.errf(d.Line, 1, "array %q needs a length or initializer", d.Name)
			}
		}
		s.define(sym, d.Line)
	case SExpr:
		s.expr(st.Expr)
	case SIf, SWhile, SDoWhile:
		s.expr(st.Cond)
		s.stmt(st.Then)
		s.stmt(st.Else)
	case SFor:
		s.push()
		s.stmt(st.Init)
		if st.Cond != nil {
			s.expr(st.Cond)
		}
		if st.Post != nil {
			s.expr(st.Post)
		}
		s.stmt(st.Then)
		s.pop()
	case SReturn:
		if st.Expr != nil {
			s.expr(st.Expr)
			if s.cur != nil && s.cur.Ret.Kind == TyVoid {
				s.errf(st.Line, 1, "void function %q returns a value", s.cur.Name)
			} else if s.cur != nil {
				s.convertTo(st.Expr, s.cur.Ret, st.Line)
			}
		} else if s.cur != nil && s.cur.Ret.Kind != TyVoid {
			s.errf(st.Line, 1, "non-void function %q returns nothing", s.cur.Name)
		}
	case SBreak, SContinue, SEmpty:
	}
}

// convertTo wraps e in a cast when its type differs from want.
func (s *sema) convertTo(e *Expr, want *CType, line int) {
	if e.Type == nil || want == nil || sameType(e.Type, want) {
		return
	}
	if want.Kind == TyVoid {
		return
	}
	okPair := (e.Type.IsScalar() && want.IsScalar())
	if !okPair {
		s.errf(line, e.Col, "cannot convert %s to %s", e.Type, want)
		return
	}
	inner := *e
	*e = Expr{Kind: ECast, Cast: want, L: &inner, Type: want, Line: e.Line, Col: e.Col}
}

// decay converts array-typed expressions to pointers.
func decay(e *Expr) {
	if e.Type != nil && e.Type.Kind == TyArray {
		e.Type = ptrTo(e.Type.Elem)
	}
}

func (s *sema) expr(e *Expr) {
	if e == nil {
		return
	}
	switch e.Kind {
	case EIntLit:
		if e.Type == nil { // a u suffix made it unsigned already
			e.Type = typeInt
		}
	case EFloatLit:
		e.Type = typeFloat
	case EVar:
		sym := s.lookup(e.Name)
		if sym == nil {
			s.errf(e.Line, e.Col, "undeclared identifier %q", e.Name)
			e.Type = typeInt
			return
		}
		e.Sym = sym
		e.Type = sym.Type
	case EBinary:
		s.binary(e)
	case EUnary:
		s.expr(e.L)
		decay(e.L)
		switch e.Op {
		case "!":
			e.Type = typeInt
		case "~":
			if e.L.Type != nil && !e.L.Type.IsInteger() {
				s.errf(e.Line, e.Col, "~ needs an integer operand, got %s", e.L.Type)
			}
			e.Type = typeInt
		default: // "-"
			e.Type = e.L.Type
		}
	case EAssign:
		s.expr(e.L)
		s.expr(e.R)
		decay(e.R)
		if !s.isLvalue(e.L) {
			s.errf(e.Line, e.Col, "assignment target is not an lvalue")
		}
		if e.L.Type != nil && e.L.Type.Kind == TyArray {
			s.errf(e.Line, e.Col, "cannot assign to an array")
		}
		s.convertTo(e.R, e.L.Type, e.Line)
		e.Type = e.L.Type
	case ECond:
		s.expr(e.L)
		s.expr(e.R)
		s.expr(e.R2)
		decay(e.R)
		decay(e.R2)
		t := usualArith(e.R.Type, e.R2.Type)
		s.convertTo(e.R, t, e.Line)
		s.convertTo(e.R2, t, e.Line)
		e.Type = t
	case ECall:
		f, ok := s.funcs[e.Fn]
		if !ok {
			s.errf(e.Line, e.Col, "call to undeclared function %q", e.Fn)
			e.Type = typeInt
			for _, a := range e.Args {
				s.expr(a)
			}
			return
		}
		if len(e.Args) != len(f.Params) {
			s.errf(e.Line, e.Col, "%q expects %d arguments, got %d", e.Fn, len(f.Params), len(e.Args))
		}
		for i, a := range e.Args {
			s.expr(a)
			decay(a)
			if i < len(f.Params) {
				s.convertTo(a, f.Params[i].Type, e.Line)
			}
		}
		e.Type = f.Ret
	case EIndex:
		s.expr(e.L)
		s.expr(e.R)
		decay(e.L)
		if e.L.Type == nil || e.L.Type.Kind != TyPtr {
			s.errf(e.Line, e.Col, "indexing a non-pointer %s", e.L.Type)
			e.Type = typeInt
			return
		}
		if e.R.Type != nil && !e.R.Type.IsInteger() {
			s.errf(e.Line, e.Col, "array index must be an integer")
		}
		e.Type = e.L.Type.Elem
	case EDeref:
		s.expr(e.L)
		decay(e.L)
		if e.L.Type == nil || e.L.Type.Kind != TyPtr {
			s.errf(e.Line, e.Col, "dereferencing a non-pointer %s", e.L.Type)
			e.Type = typeInt
			return
		}
		e.Type = e.L.Type.Elem
	case EAddr:
		s.expr(e.L)
		if !s.isLvalue(e.L) {
			s.errf(e.Line, e.Col, "& needs an lvalue")
		}
		base := e.L.Type
		if base != nil && base.Kind == TyArray {
			base = base.Elem
		}
		e.Type = ptrTo(base)
	case ECast:
		s.expr(e.L)
		decay(e.L)
		e.Type = e.Cast
	case EPreIncr, EPostIncr:
		s.expr(e.L)
		if !s.isLvalue(e.L) {
			s.errf(e.Line, e.Col, "++/-- needs an lvalue")
		}
		e.Type = e.L.Type
	case ESizeof:
		if e.L != nil {
			s.expr(e.L)
			if e.L.Type != nil {
				e.Int = int64(e.L.Type.Size())
			}
		} else if e.Cast != nil {
			e.Int = int64(e.Cast.Size())
		}
		e.Kind = EIntLit
		e.Type = typeInt
	}
}

func (s *sema) binary(e *Expr) {
	s.expr(e.L)
	s.expr(e.R)
	decay(e.L)
	decay(e.R)
	lt, rt := e.L.Type, e.R.Type
	if lt == nil || rt == nil {
		e.Type = typeInt
		return
	}
	switch e.Op {
	case ",":
		e.Type = rt
	case "&&", "||":
		e.Type = typeInt
	case "==", "!=", "<", "<=", ">", ">=":
		if lt.IsFloat() || rt.IsFloat() {
			t := usualArith(lt, rt)
			s.convertTo(e.L, t, e.Line)
			s.convertTo(e.R, t, e.Line)
		}
		e.Type = typeInt
	case "+", "-":
		// Pointer arithmetic.
		if lt.Kind == TyPtr && rt.IsInteger() {
			e.Type = lt
			return
		}
		if e.Op == "+" && lt.IsInteger() && rt.Kind == TyPtr {
			e.Type = rt
			return
		}
		if e.Op == "-" && lt.Kind == TyPtr && rt.Kind == TyPtr {
			e.Type = typeInt
			return
		}
		t := usualArith(lt, rt)
		s.convertTo(e.L, t, e.Line)
		s.convertTo(e.R, t, e.Line)
		e.Type = t
	case "%", "&", "|", "^", "<<", ">>":
		if !lt.IsInteger() || !rt.IsInteger() {
			s.errf(e.Line, e.Col, "operator %q needs integer operands, got %s and %s", e.Op, lt, rt)
		}
		e.Type = usualArith(lt, rt)
	default: // * /
		t := usualArith(lt, rt)
		s.convertTo(e.L, t, e.Line)
		s.convertTo(e.R, t, e.Line)
		e.Type = t
	}
}

// unsignedOp reports whether the integer operation e works on unsigned
// values: the one statement of that rule, for the code generator's choice
// of instruction and the constant folder's choice of arithmetic alike. A
// shift takes its signedness from the left operand alone; division,
// remainder and the comparisons take it from both operands after the usual
// arithmetic conversions, under which one unsigned operand makes the
// operation unsigned.
func unsignedOp(e *Expr) bool {
	isUnsigned := func(t *CType) bool { return t != nil && t.Kind == TyUInt }
	if e.Op == "<<" || e.Op == ">>" {
		return isUnsigned(e.L.Type)
	}
	return isUnsigned(e.L.Type) || isUnsigned(e.R.Type)
}

// usualArith implements the usual arithmetic conversions for the subset.
func usualArith(a, b *CType) *CType {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.Kind == TyDouble || b.Kind == TyDouble {
		return typeDouble
	}
	if a.Kind == TyFloat || b.Kind == TyFloat {
		return typeFloat
	}
	if a.Kind == TyPtr {
		return a
	}
	if b.Kind == TyPtr {
		return b
	}
	if a.Kind == TyUInt || b.Kind == TyUInt {
		return typeUInt
	}
	return typeInt
}

func (s *sema) isLvalue(e *Expr) bool {
	switch e.Kind {
	case EVar, EDeref, EIndex:
		return true
	}
	return false
}
