package compiler

import "fmt"

// TypeKind enumerates the supported C types.
type TypeKind uint8

// Supported type kinds.
const (
	TyVoid TypeKind = iota
	TyChar
	TyInt
	TyUInt
	TyFloat
	TyDouble
	TyPtr
	TyArray
	TyFunc
)

// CType is a C type. Pointer and array types link to their element type.
type CType struct {
	Kind TypeKind
	Elem *CType // pointer/array element
	Len  int    // array length
	// Func signature.
	Ret    *CType
	Params []*CType
}

// Basic type singletons.
var (
	typeVoid   = &CType{Kind: TyVoid}
	typeChar   = &CType{Kind: TyChar}
	typeInt    = &CType{Kind: TyInt}
	typeUInt   = &CType{Kind: TyUInt}
	typeFloat  = &CType{Kind: TyFloat}
	typeDouble = &CType{Kind: TyDouble}
)

// ptrTo returns a pointer type.
func ptrTo(e *CType) *CType { return &CType{Kind: TyPtr, Elem: e} }

// arrayOf returns an array type.
func arrayOf(e *CType, n int) *CType { return &CType{Kind: TyArray, Elem: e, Len: n} }

// Size returns the byte size of the type.
func (t *CType) Size() int {
	switch t.Kind {
	case TyChar:
		return 1
	case TyInt, TyUInt, TyFloat, TyPtr:
		return 4
	case TyDouble:
		return 8
	case TyArray:
		return t.Elem.Size() * t.Len
	default:
		return 0
	}
}

// Align returns the alignment requirement.
func (t *CType) Align() int {
	if t.Kind == TyArray {
		return t.Elem.Align()
	}
	s := t.Size()
	if s == 0 {
		return 1
	}
	return s
}

// IsFloat reports whether the type is floating point.
func (t *CType) IsFloat() bool { return t.Kind == TyFloat || t.Kind == TyDouble }

// IsInteger reports whether the type is an integer type.
func (t *CType) IsInteger() bool {
	return t.Kind == TyChar || t.Kind == TyInt || t.Kind == TyUInt
}

// IsScalar reports whether the type fits a register.
func (t *CType) IsScalar() bool {
	return t.IsInteger() || t.IsFloat() || t.Kind == TyPtr
}

// String renders the type for diagnostics.
func (t *CType) String() string {
	switch t.Kind {
	case TyVoid:
		return "void"
	case TyChar:
		return "char"
	case TyInt:
		return "int"
	case TyUInt:
		return "unsigned"
	case TyFloat:
		return "float"
	case TyDouble:
		return "double"
	case TyPtr:
		return t.Elem.String() + "*"
	case TyArray:
		return fmt.Sprintf("%s[%d]", t.Elem, t.Len)
	case TyFunc:
		return "function"
	default:
		return "?"
	}
}

func sameType(a, b *CType) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case TyPtr:
		return sameType(a.Elem, b.Elem)
	case TyArray:
		return a.Len == b.Len && sameType(a.Elem, b.Elem)
	default:
		return true
	}
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// ExprKind enumerates expression node kinds.
type ExprKind uint8

// Expression kinds.
const (
	EIntLit ExprKind = iota
	EFloatLit
	EVar      // identifier reference
	EBinary   // Op applied to L, R
	EUnary    // Op applied to L (-, !, ~)
	EAssign   // L = R (plain; compound ops are desugared by the parser)
	ECond     // L ? R : R2
	ECall     // Fn(Args...)
	EIndex    // L[R]
	EDeref    // *L
	EAddr     // &L
	ECast     // (Type)L
	EPreIncr  // ++L / --L (Op "+" or "-")
	EPostIncr // L++ / L-- (Op "+" or "-")
	ESizeof
)

// Expr is one expression node, annotated with its type by sema.
type Expr struct {
	Kind ExprKind
	Op   string
	L, R *Expr
	R2   *Expr
	Fn   string
	Args []*Expr
	Int  int64
	Flt  float64
	Name string
	Cast *CType

	Type *CType // set by sema
	Line int
	Col  int
	// Sym is resolved by sema for EVar.
	Sym *Symbol
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

// StmtKind enumerates statement node kinds.
type StmtKind uint8

// Statement kinds.
const (
	SExpr StmtKind = iota
	SDecl
	SIf
	SWhile
	SDoWhile
	SFor
	SReturn
	SBreak
	SContinue
	SBlock
	SEmpty
)

// Stmt is one statement node.
type Stmt struct {
	Kind StmtKind
	Expr *Expr // SExpr, SReturn value (may be nil)
	Cond *Expr
	Init *Stmt // SFor
	Post *Expr // SFor
	Then *Stmt
	Else *Stmt
	Body []*Stmt // SBlock
	Decl *VarDecl
	Line int
}

// VarDecl is one variable declaration (local or global).
type VarDecl struct {
	Name   string
	Type   *CType
	Init   *Expr   // scalar initializer
	Inits  []*Expr // array initializer list
	Extern bool
	Line   int
	Sym    *Symbol
}

// FuncDecl is one function definition.
type FuncDecl struct {
	Name   string
	Ret    *CType
	Params []*VarDecl
	Body   *Stmt // SBlock
	Line   int
}

// Program is a parsed translation unit.
type Program struct {
	Globals []*VarDecl
	Funcs   []*FuncDecl
}

// SymbolKind distinguishes storage classes.
type SymbolKind uint8

// Symbol kinds.
const (
	SymGlobal SymbolKind = iota
	SymLocal
	SymParam
)

// Symbol is a resolved name: its type and storage.
type Symbol struct {
	Name string
	Kind SymbolKind
	Type *CType
	// Local storage: frame offset (sp-relative) when spilled, or a
	// dedicated callee-saved register when promoted by the allocator.
	FrameOff int
	Reg      string // "" when in memory
	Extern   bool
}
