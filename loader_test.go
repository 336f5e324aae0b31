package riscvsim

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// modulePath is the import path of the repository root. bench/ is a
// module of its own whose path extends it, so a directory's import path
// is modulePath + "/" + dir in both.
const modulePath = "riscvsim"

// srcFile is one non-test source file, type-checked with its package.
type srcFile struct {
	path string // slash-separated, relative to the root
	fset *token.FileSet
	ast  *ast.File
	info *types.Info // its package's
}

// typedPkg is one type-checked package.
type typedPkg struct {
	types *types.Package
	info  *types.Info
	files []*srcFile
}

// loadTree type-checks the repository's non-test Go code once per test
// binary: every package of the root module and bench/ (a module of its
// own, whose code calls into the root module's), each after the packages
// it imports. TestExportsHaveCallers and TestArchitectureRules read it.
var loadTree = sync.OnceValues(func() (*loader, error) {
	l, err := newLoader(".")
	if err != nil {
		return nil, err
	}
	for _, ip := range slices.Sorted(maps.Keys(l.files)) {
		if _, err := l.check(ip); err != nil {
			return nil, err
		}
	}
	// A real file whose function a plant replaced may import what only
	// that function used.
	l.errs = slices.DeleteFunc(l.errs, func(err error) bool {
		te, ok := err.(types.Error)
		return ok && strings.HasSuffix(te.Msg, "imported and not used") &&
			!slices.ContainsFunc(l.planted, func(f *srcFile) bool { return f.ast.FileStart <= te.Pos && te.Pos <= f.ast.FileEnd })
	})
	return l, nil
})

func typedTree(t *testing.T) *loader {
	t.Helper()
	tr, err := loadTree()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// loader type-checks packages from source, each once: a package it has
// files for is checked from them when first imported, any other is
// imported from base.
type loader struct {
	fset    *token.FileSet
	files   map[string][]*srcFile // by import path
	checked map[string]*typedPkg
	pkgs    []*typedPkg // in the order checked: imports first
	base    types.Importer
	// soft keeps checking past type errors, collecting them in errs
	// instead of failing the package, so a test can report them.
	soft    bool
	errs    []error
	planted []*srcFile // the files plant added
}

// newLoader parses every non-test .go file under root (testdata and
// hidden directories skipped) and imports the standard library from the
// export data the go command builds.
func newLoader(root string) (*loader, error) {
	l := &loader{fset: token.NewFileSet(), files: map[string][]*srcFile{}, checked: map[string]*typedPkg{}}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), name); !ok || err != nil {
			return err
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return l.add(filepath.ToSlash(p), string(src))
	})
	if err != nil {
		return nil, err
	}
	l.base, err = stdImporter(l.fset, l.imports())
	return l, err
}

// add parses src as the file at path p of the package in p's directory.
func (l *loader) add(p, src string) error {
	af, err := parser.ParseFile(l.fset, p, src, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	ip := modulePath
	if dir := path.Dir(p); dir != "." {
		ip += "/" + dir
	}
	l.files[ip] = append(l.files[ip], &srcFile{path: p, fset: l.fset, ast: af})
	return nil
}

// imports lists the paths the loader's files import that it has no files
// for.
func (l *loader) imports() []string {
	var out []string
	for _, files := range l.files {
		for _, f := range files {
			for _, is := range f.ast.Imports {
				ip, _ := strconv.Unquote(is.Path.Value)
				if _, ok := l.files[ip]; !ok && !slices.Contains(out, ip) {
					out = append(out, ip)
				}
			}
		}
	}
	return out
}

func (l *loader) Import(ip string) (*types.Package, error) {
	if _, ok := l.files[ip]; !ok {
		return l.base.Import(ip)
	}
	p, err := l.check(ip)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// check type-checks the package at import path ip, after the packages it
// imports.
func (l *loader) check(ip string) (*typedPkg, error) {
	if p, ok := l.checked[ip]; ok {
		return p, nil
	}
	files := l.files[ip]
	asts := make([]*ast.File, len(files))
	for i, f := range files {
		asts[i] = f.ast
	}
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var errs []error
	conf := types.Config{Importer: l, Error: func(err error) { errs = append(errs, err) }}
	tp, _ := conf.Check(ip, l.fset, asts, info)
	if len(errs) > 0 && !l.soft {
		return nil, errors.Join(errs...)
	}
	l.errs = append(l.errs, errs...)
	p := &typedPkg{types: tp, info: info, files: files}
	for _, f := range files {
		f.info = info
	}
	l.checked[ip] = p
	l.pkgs = append(l.pkgs, p)
	return p, nil
}

// plant type-checks srcs, sources at virtual paths, each as one more file
// of the tree's package in its directory, or of a new package where there
// is none. A function or method a planted file declares replaces the
// package's own of that name, so a plant can stand in for the body of the
// one function a rule allows. The loader it returns holds the planted
// files, the packages checked and their type errors.
func (tr *loader) plant(srcs map[string]string) (*loader, error) {
	l := &loader{fset: tr.fset, files: map[string][]*srcFile{}, checked: map[string]*typedPkg{}, base: tr, soft: true}
	for _, p := range slices.Sorted(maps.Keys(srcs)) {
		if err := l.add(p, srcs[p]); err != nil {
			return nil, err
		}
	}
	for ip, files := range l.files {
		l.planted = append(l.planted, files...)
		replaced := map[string]bool{}
		for _, f := range files {
			for _, d := range f.ast.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					replaced[declName(fd)] = true
				}
			}
		}
		var real []*srcFile
		for _, f := range tr.files[ip] {
			c, af := *f, *f.ast // checked again here, with an info of its own
			af.Decls = slices.DeleteFunc(slices.Clone(af.Decls), func(d ast.Decl) bool {
				fd, ok := d.(*ast.FuncDecl)
				return ok && replaced[declName(fd)]
			})
			c.ast = &af
			real = append(real, &c)
		}
		l.files[ip] = append(real, files...)
	}
	for _, ip := range slices.Sorted(maps.Keys(l.files)) {
		if _, err := l.check(ip); err != nil {
			return nil, err
		}
	}
	// A real file whose function a plant replaced may import what only
	// that function used.
	l.errs = slices.DeleteFunc(l.errs, func(err error) bool {
		te, ok := err.(types.Error)
		return ok && strings.HasSuffix(te.Msg, "imported and not used") &&
			!slices.ContainsFunc(l.planted, func(f *srcFile) bool { return f.ast.FileStart <= te.Pos && te.Pos <= f.ast.FileEnd })
	})
	return l, nil
}

// declName names a function declaration the way a package scope and a
// method set tell declarations apart: by receiver type and name.
func declName(fd *ast.FuncDecl) string { return strings.Replace(funcName(fd), "(*", "(", 1) }

// objName names a resolved object as the repository's rules name it:
// "time.Now", "internal/core.(Simulation).Fresh",
// "internal/stats.(Report).IPC". A local, a package name or a builtin is
// "".
func objName(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	pkg := strings.TrimPrefix(obj.Pkg().Path(), modulePath+"/")
	switch o := obj.(type) {
	case *types.Func:
		if recv := o.Signature().Recv(); recv != nil {
			return pkg + ".(" + typeName(recv.Type()) + ")." + o.Name()
		}
	case *types.Var:
		if o.IsField() {
			if owner := fieldOwner(o); owner != nil {
				return pkg + ".(" + owner.Name() + ")." + o.Name()
			}
			return ""
		}
	case *types.PkgName:
		return ""
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return pkg + "." + obj.Name()
}

// typeName names a receiver type without its pointer or type arguments.
func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

var fieldOwners sync.Map // *types.Var -> *types.TypeName

// fieldOwner returns the named type of v's package whose struct declares
// field v, or nil (a field of an anonymous struct).
func fieldOwner(v *types.Var) *types.TypeName {
	v = v.Origin()
	if o, ok := fieldOwners.Load(v); ok {
		return o.(*types.TypeName)
	}
	var owner *types.TypeName
	scope := v.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for f := range st.Fields() {
				if f == v {
					owner = tn
				}
			}
		}
	}
	fieldOwners.Store(v, owner)
	return owner
}

// stdImporter imports standard library packages from the export data
// the go command builds: those in paths are listed in one run of it up
// front, any other (a planted file's import) in a run of its own.
func stdImporter(fset *token.FileSet, paths []string) (types.Importer, error) {
	export := map[string]string{}
	list := func(paths ...string) error {
		cmd := exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}, paths...)...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("go list -export: %v\n%s", err, stderr.Bytes())
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			if ip, file, ok := strings.Cut(sc.Text(), "\t"); ok {
				export[ip] = file
			}
		}
		return nil
	}
	if err := list(paths...); err != nil {
		return nil, err
	}
	return importer.ForCompiler(fset, "gc", func(ip string) (io.ReadCloser, error) {
		if _, ok := export[ip]; !ok {
			if err := list(ip); err != nil {
				return nil, err
			}
		}
		return os.Open(export[ip])
	}), nil
}
