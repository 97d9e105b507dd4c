// testonly.go — check "testonly": production code that only tests reach.
// An exported function or method declared in a non-test file under the
// module's internal/ tree that no non-test code references is a finding:
// it cannot be measured, and it grows the surface every refactor carries.
// Delete it, move it into a _test.go file of its package, or — when another
// package's tests need it — mark it //colibri:allow(testonly) and name that
// caller in the comment.
//
// References are resolved by type over every non-test package of the
// module (whatever the patterns select) and of each nested module whose
// go.mod replaces the root module (the benchmark harness), so a name
// collision cannot hide a dead method and an instantiation of a generic
// function or method counts for its declaration. A method is also used
// when its receiver implements an interface the loaded code names, or one
// that a called function takes as a parameter (heap.Interface, sort.Interface).
package main

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

const checkTestonly = "testonly"

type testonlyCheck struct{ pkgs []*Pkg }

func (c *testonlyCheck) Run(p *Pkg, r *Reporter) { c.pkgs = append(c.pkgs, p) }

// Finish loads every caller package and reports the analyzed internal
// packages' exported functions that none of them references.
func (c *testonlyCheck) Finish(l *Loader, r *Reporter) error {
	callers, err := l.callerPackages()
	if err != nil {
		return err
	}
	used := map[*types.Func]bool{}
	ifaces := map[*types.Interface]bool{}
	for _, p := range callers {
		for _, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
		for _, imp := range p.TypesPkg.Imports() {
			if !strings.HasPrefix(imp.Path(), l.ModPath) {
				addPackageInterfaces(ifaces, imp)
			}
		}
		for _, tv := range p.Info.Types {
			addInterfaces(ifaces, tv.Type)
			if sig, ok := tv.Type.(*types.Signature); ok {
				for i := 0; i < sig.Params().Len(); i++ {
					addInterfaces(ifaces, sig.Params().At(i).Type())
				}
			}
		}
	}
	internal := l.ModPath + "/internal/"
	for _, p := range c.pkgs {
		if !strings.HasPrefix(p.ImportPath, internal) {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok || used[fn] || satisfiesInterface(fn, ifaces) {
					continue
				}
				r.Report(fd.Pos(), checkTestonly,
					"%s is referenced only by tests: delete it, move it into a _test.go file of its package, or mark a hook another package's tests need //colibri:allow(testonly) and name that caller",
					funcName(fn))
			}
		}
	}
	return nil
}

// addInterfaces records t (or the element of a variadic slice) when it is
// an interface with methods.
func addInterfaces(set map[*types.Interface]bool, t types.Type) {
	if t == nil {
		return
	}
	if s, ok := t.(*types.Slice); ok {
		t = s.Elem()
	}
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
		set[it] = true
	}
}

// addPackageInterfaces records the exported interfaces a standard-library
// package declares: it may assert any value handed to it against them, as
// fmt does with Stringer.
func addPackageInterfaces(set map[*types.Interface]bool, pkg *types.Package) {
	for _, name := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
			addInterfaces(set, tn.Type())
		}
	}
}

// satisfiesInterface reports whether fn is a method one of whose receiver
// forms implements an interface in set that declares fn's name.
func satisfiesInterface(fn *types.Func, set map[*types.Interface]bool) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for it := range set {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, fn.Pkg(), fn.Name()); obj == nil {
			continue
		}
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// funcName renders fn as pkg.Name or pkg.Recv.Name.
func funcName(fn *types.Func) string {
	name := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name += n.Obj().Name() + "."
		}
	}
	return name + fn.Name()
}

// callerPackages loads every non-test package of the module and of each
// nested module that replaces it.
func (l *Loader) callerPackages() ([]*Pkg, error) {
	roots := []string{l.ModRoot}
	nested, err := l.replacingModules()
	if err != nil {
		return nil, err
	}
	roots = append(roots, nested...)
	var out []*Pkg
	for _, root := range roots {
		dirs, err := l.PackageDirs(root, "./...")
		if err != nil {
			return nil, err
		}
		for _, d := range dirs {
			p, err := l.Load(d)
			if err != nil {
				return nil, err
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// replacingModules returns the directories of the modules nested under the
// root whose go.mod replaces the root module with the root's directory.
func (l *Loader) replacingModules() ([]string, error) {
	var out []string
	err := filepath.WalkDir(l.ModRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() || path == l.ModRoot {
			return nil
		}
		name := d.Name()
		if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		data, err := os.ReadFile(filepath.Join(path, "go.mod"))
		if err != nil {
			return nil
		}
		for _, line := range strings.Split(string(data), "\n") {
			f := strings.Fields(line)
			if len(f) > 0 && f[0] == "replace" {
				f = f[1:] // a one-line directive; inside a block the line starts with the path
			}
			if i := slices.Index(f, "=>"); i > 0 && i+1 < len(f) && f[0] == l.ModPath &&
				filepath.Join(path, f[i+1]) == l.ModRoot {
				out = append(out, path)
				break
			}
		}
		return filepath.SkipDir
	})
	return out, err
}
