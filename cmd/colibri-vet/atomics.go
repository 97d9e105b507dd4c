// atomics.go — check "atomics": the conservation argument of the sharded
// data/control planes (DESIGN.md §§7–8) rests on counters and flags that are
// updated concurrently yet must never tear or lose an update. Two rules,
// reconciled module-wide after the last package is analyzed:
//
//  1. Migrate raw targets: every legacy sync/atomic call (atomic.AddUint64,
//     atomic.LoadInt64, ...) on an addressable int32/int64/uint32/uint64/
//     pointer target is a finding — typed atomic.Int64/Uint64/Bool/Pointer
//     fields make a mixed atomic/plain access unviolable by construction (a
//     plain access no longer compiles), which is why the tree migrated to
//     them. The finding keeps raw targets from creeping back in.
//
//  2. Single writer: a field annotated //colibri:singlewriter may receive
//     atomic writes (Store/Add/Swap/CompareAndSwap/Or/And on a typed
//     atomic, or a legacy atomic write) from at most one function;
//     constructors are exempt (pre-publication initialization). The
//     annotation turns a comment like "written only by reserveTs" into
//     an enforced invariant — e.g. the gateway's lastTs timestamp word
//     that every worker's BuildBatch reads.
package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

const checkAtomics = "atomics"

// legacyAtomicWrite names the sync/atomic package-level functions that
// mutate their target; the remaining legacy functions (Load*) only read.
var legacyAtomicWrite = map[string]bool{
	"AddInt32": true, "AddInt64": true, "AddUint32": true, "AddUint64": true, "AddUintptr": true,
	"StoreInt32": true, "StoreInt64": true, "StoreUint32": true, "StoreUint64": true,
	"StoreUintptr": true, "StorePointer": true,
	"SwapInt32": true, "SwapInt64": true, "SwapUint32": true, "SwapUint64": true,
	"SwapUintptr": true, "SwapPointer": true,
	"CompareAndSwapInt32": true, "CompareAndSwapInt64": true,
	"CompareAndSwapUint32": true, "CompareAndSwapUint64": true,
	"CompareAndSwapUintptr": true, "CompareAndSwapPointer": true,
}

// atomicTypeWrite names the mutating methods of the typed atomics
// (atomic.Int64, atomic.Uint64, atomic.Bool, atomic.Pointer, atomic.Value).
var atomicTypeWrite = map[string]bool{
	"Store": true, "Add": true, "Swap": true, "CompareAndSwap": true,
	"Or": true, "And": true,
}

// atomicWriter is one function observed performing an atomic write.
type atomicWriter struct {
	fn  string // package-path-qualified function or method name
	pos token.Pos
}

type atomicsCheck struct {
	pkgs []*Pkg
}

// Run only collects: the single-writer rule needs the module-wide view (an
// exported field's second writer can live in another package).
func (c *atomicsCheck) Run(p *Pkg, r *Reporter) { c.pkgs = append(c.pkgs, p) }

// Finish reconciles across all analyzed packages.
func (c *atomicsCheck) Finish(r *Reporter) {
	// singleWriter: annotated field/var objects mapped to their writers.
	singleWriter := map[types.Object][]atomicWriter{}
	annotated := map[types.Object]bool{}

	for _, p := range c.pkgs {
		for _, f := range p.Files {
			c.collectAnnotated(f, p, annotated)
		}
	}

	for _, p := range c.pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fnName := qualifiedFuncName(p, fd)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					// Legacy package-level atomics: atomic.Fn(&target, ...).
					if pkgPath, fn := pkgFuncCall(call, p.Info); pkgPath == "sync/atomic" {
						if obj := addrOperandObj(call, p.Info); obj != nil {
							r.Report(call.Pos(), checkAtomics,
								"raw sync/atomic.%s on %s: migrate to a typed atomic.%s field so a plain access cannot compile",
								fn, obj.Name(), typedAtomicFor(obj.Type()))
							if legacyAtomicWrite[fn] && annotated[obj] && !isConstructorName(fd.Name.Name) {
								singleWriter[obj] = append(singleWriter[obj], atomicWriter{fn: fnName, pos: call.Pos()})
							}
						}
						return true
					}
					// Typed atomics: target.Store(...) / .Add(...) / ...
					if obj, method := typedAtomicCall(call, p.Info); obj != nil {
						if atomicTypeWrite[method] && annotated[obj] && !isConstructorName(fd.Name.Name) {
							singleWriter[obj] = append(singleWriter[obj], atomicWriter{fn: fnName, pos: call.Pos()})
						}
					}
					return true
				})
			}
		}
	}

	// Rule 2: more than one writing function for a //colibri:singlewriter
	// field. Writers are deduplicated per function and reported in a stable
	// order (first writer by position wins the annotation).
	var annObjs []types.Object
	for obj := range singleWriter {
		annObjs = append(annObjs, obj)
	}
	sort.Slice(annObjs, func(i, j int) bool { return annObjs[i].Pos() < annObjs[j].Pos() })
	for _, obj := range annObjs {
		writers := singleWriter[obj]
		sort.Slice(writers, func(i, j int) bool { return writers[i].pos < writers[j].pos })
		first := writers[0]
		for _, w := range writers[1:] {
			if w.fn == first.fn {
				continue
			}
			r.Report(w.pos, checkAtomics,
				"%s is annotated //colibri:singlewriter with writer %s (first write at %s): a second writing function breaks the single-writer contract — route the write through the owner or drop the annotation",
				obj.Name(), first.fn, r.PosString(first.pos))
		}
	}
}

// collectAnnotated indexes struct fields and package-level vars carrying a
// //colibri:singlewriter annotation in their doc or trailing comment.
func (c *atomicsCheck) collectAnnotated(f *ast.File, p *Pkg, out map[types.Object]bool) {
	mark := func(names []*ast.Ident) {
		for _, name := range names {
			if obj := p.Info.Defs[name]; obj != nil {
				out[obj] = true
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.StructType:
			for _, field := range n.Fields.List {
				if commentGroupHas(field.Doc, "//colibri:singlewriter") ||
					commentGroupHas(field.Comment, "//colibri:singlewriter") {
					mark(field.Names)
				}
			}
		case *ast.GenDecl:
			if n.Tok != token.VAR {
				return true
			}
			declAnn := commentGroupHas(n.Doc, "//colibri:singlewriter")
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if declAnn || commentGroupHas(vs.Doc, "//colibri:singlewriter") ||
					commentGroupHas(vs.Comment, "//colibri:singlewriter") {
					mark(vs.Names)
				}
			}
		}
		return true
	})
}

func commentGroupHas(cg *ast.CommentGroup, marker string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.Contains(c.Text, marker) {
			return true
		}
	}
	return false
}

// addrOperandObj resolves the &target first operand of a legacy atomic call
// to the object it addresses (a struct field or variable).
func addrOperandObj(call *ast.CallExpr, info *types.Info) types.Object {
	if len(call.Args) == 0 {
		return nil
	}
	un, ok := call.Args[0].(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return nil
	}
	switch x := un.X.(type) {
	case *ast.SelectorExpr:
		return info.Uses[x.Sel]
	case *ast.Ident:
		return info.Uses[x]
	case *ast.IndexExpr:
		if sel, ok := x.X.(*ast.SelectorExpr); ok {
			return info.Uses[sel.Sel]
		}
	}
	return nil
}

// typedAtomicCall classifies call as a method call on a sync/atomic typed
// value reached through a field/var selector, returning the field/var object
// and the method name.
func typedAtomicCall(call *ast.CallExpr, info *types.Info) (types.Object, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	selInfo, ok := info.Selections[sel]
	if !ok {
		return nil, ""
	}
	fn, ok := selInfo.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return nil, ""
	}
	switch x := sel.X.(type) {
	case *ast.SelectorExpr:
		return info.Uses[x.Sel], sel.Sel.Name
	case *ast.Ident:
		return info.Uses[x], sel.Sel.Name
	case *ast.IndexExpr:
		if inner, ok := x.X.(*ast.SelectorExpr); ok {
			return info.Uses[inner.Sel], sel.Sel.Name
		}
	}
	return nil, sel.Sel.Name
}

// typedAtomicFor suggests the typed replacement for a raw target's type.
func typedAtomicFor(t types.Type) string {
	switch b := t.Underlying().(type) {
	case *types.Basic:
		switch b.Kind() {
		case types.Int32:
			return "Int32"
		case types.Int64, types.Int:
			return "Int64"
		case types.Uint32:
			return "Uint32"
		case types.Uint64, types.Uint, types.Uintptr:
			return "Uint64"
		}
	case *types.Pointer:
		return "Pointer[T]"
	}
	return "Int64/Uint64/Pointer"
}

// isConstructorName reports whether a function is a pre-publication
// constructor by the tree's convention.
func isConstructorName(name string) bool {
	return strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new") || name == "init"
}

// qualifiedFuncName renders a stable writer identity: pkg.Func or
// pkg.(Recv).Method.
func qualifiedFuncName(p *Pkg, fd *ast.FuncDecl) string {
	name := fd.Name.Name
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		recv := exprKeyNoPos(fd.Recv.List[0].Type)
		name = "(" + recv + ")." + name
	}
	return p.Name + "." + name
}

// exprKeyNoPos renders a receiver type expression without needing a
// FileSet-relative position (receiver types are simple: T or *T).
func exprKeyNoPos(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return "*" + exprKeyNoPos(e.X)
	case *ast.IndexExpr: // generic receiver T[P]
		return exprKeyNoPos(e.X)
	}
	return "?"
}
