// shardown.go — check "shardown": the sharded data and control planes
// (router.Sharded, gateway.Sharded, cserv.CPlane; DESIGN.md §§7–8) are
// race-free by OWNERSHIP, not by locking: each shard struct's state is
// touched by exactly one goroutine per dispatch window, handed between the
// dispatcher and a pool worker by the shardpool barrier. That argument dies
// silently the moment owned state is reachable from anywhere else — so a
// struct type annotated //colibri:shardowned gets it enforced:
//
//  1. Containment: a field of a shard-owned type may only be accessed from
//     (a) methods of the type itself, (b) methods of a same-package holder
//     type (a struct with a field whose type reaches the owned type —
//     the dispatching front end, whose Merge()/Counts() reconciliation
//     points live there too), or (c) same-package constructors
//     (New*/new*/init, pre-publication). Any other function touching an
//     owned field is a finding.
//
//  2. No aliasing out: inside the allowed contexts, owned state of
//     reference kind (pointer, slice, map, channel, function) must not
//     escape the ownership domain — returning an owned field (except from
//     Merge/Counts reconciliation or a constructor), sending one on a
//     channel, or capturing one in a function literal that itself escapes
//     (go statement, channel send, return, or assignment to non-local
//     storage) are findings. An alias that outlives the dispatch barrier
//     is a data race the ownership argument can no longer exclude.
//
// The check is module-wide: annotations are collected first, accesses
// reconciled in Finish.
package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

const checkShardown = "shardown"

type shardownCheck struct {
	pkgs []*Pkg
}

func (c *shardownCheck) Run(p *Pkg, r *Reporter) { c.pkgs = append(c.pkgs, p) }

func (c *shardownCheck) Finish(r *Reporter) {
	// owned: annotated struct types.
	owned := map[*types.TypeName]bool{}
	for _, p := range c.pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				declAnn := hasDirective(gd.Doc, "//colibri:shardowned")
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if !declAnn && !hasDirective(ts.Doc, "//colibri:shardowned") &&
						!hasDirective(ts.Comment, "//colibri:shardowned") {
						continue
					}
					obj, ok := p.Info.Defs[ts.Name].(*types.TypeName)
					if !ok {
						continue
					}
					if _, isStruct := obj.Type().Underlying().(*types.Struct); !isStruct {
						r.Report(ts.Pos(), checkShardown,
							"//colibri:shardowned on %s, which is not a struct type: the annotation marks shard state structs", ts.Name.Name)
						continue
					}
					owned[obj] = true
				}
			}
		}
	}
	if len(owned) == 0 {
		return
	}

	// holders: for each owned type, the same-package struct types with a
	// field whose type reaches it (the dispatching front ends).
	holders := map[*types.TypeName]map[*types.TypeName]bool{}
	for ot := range owned {
		holders[ot] = map[*types.TypeName]bool{}
	}
	for _, p := range c.pkgs {
		scope := p.TypesPkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				for ot := range owned {
					if ot.Pkg() == tn.Pkg() && typeReaches(st.Field(i).Type(), ot, 0) {
						holders[ot][tn] = true
					}
				}
			}
		}
	}

	for _, p := range c.pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				c.checkFunc(p, fd, owned, holders, r)
			}
		}
	}
}

// typeReaches reports whether t contains named (through pointers, slices,
// arrays, maps and channels — not through other named struct types, which
// are their own ownership domains).
func typeReaches(t types.Type, target *types.TypeName, depth int) bool {
	if depth > 4 {
		return false
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Obj() == target
	case *types.Pointer:
		return typeReaches(t.Elem(), target, depth+1)
	case *types.Slice:
		return typeReaches(t.Elem(), target, depth+1)
	case *types.Array:
		return typeReaches(t.Elem(), target, depth+1)
	case *types.Map:
		return typeReaches(t.Key(), target, depth+1) || typeReaches(t.Elem(), target, depth+1)
	case *types.Chan:
		return typeReaches(t.Elem(), target, depth+1)
	}
	return false
}

// recvTypeObj resolves a method's receiver base type object.
func recvTypeObj(fd *ast.FuncDecl, info *types.Info) *types.TypeName {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	t := info.Types[fd.Recv.List[0].Type].Type
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// ownedFieldSel reports whether sel selects a field of an owned type,
// returning the owned type.
func ownedFieldSel(sel *ast.SelectorExpr, info *types.Info, owned map[*types.TypeName]bool) *types.TypeName {
	selInfo, ok := info.Selections[sel]
	if !ok || selInfo.Kind() != types.FieldVal {
		return nil
	}
	t := selInfo.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if owned[n.Obj()] {
		return n.Obj()
	}
	return nil
}

// isReferenceType reports whether aliasing a value of type t aliases shared
// state (pointer, slice, map, channel, function).
func isReferenceType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	}
	return false
}

// reconciliationMethods are the holder methods allowed to hand owned state
// out: the explicit cross-shard reconciliation points.
var reconciliationMethods = map[string]bool{"Merge": true, "Counts": true}

func (c *shardownCheck) checkFunc(p *Pkg, fd *ast.FuncDecl, owned map[*types.TypeName]bool,
	holders map[*types.TypeName]map[*types.TypeName]bool, r *Reporter) {

	recv := recvTypeObj(fd, p.Info)
	ctor := isConstructorName(fd.Name.Name)

	allowed := func(ot *types.TypeName) bool {
		if recv != nil && recv == ot {
			return true // the owned type's own method
		}
		if recv != nil && holders[ot][recv] {
			return true // a holder's method (dispatch / reconciliation)
		}
		if ctor && p.TypesPkg == ot.Pkg() {
			return true // same-package constructor, pre-publication
		}
		return false
	}

	// Walk with a parent stack so escape contexts (what encloses a func
	// literal or an owned selector) are known.
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.SelectorExpr:
			ot := ownedFieldSel(n, p.Info, owned)
			if ot == nil {
				return true
			}
			if !allowed(ot) {
				r.Report(n.Sel.Pos(), checkShardown,
					"field %s of shard-owned type %s touched outside its ownership domain (%s): only %s's methods, its holder's methods, and constructors may access shard state",
					n.Sel.Name, ot.Name(), fd.Name.Name, ot.Name())
				return true
			}
			c.checkEscape(p, fd, n, ot, stack, r)
		}
		return true
	})
}

// checkEscape flags an owned-field selector whose value aliases out of the
// ownership domain: returned, sent on a channel, or captured by an escaping
// function literal.
func (c *shardownCheck) checkEscape(p *Pkg, fd *ast.FuncDecl, sel *ast.SelectorExpr,
	ot *types.TypeName, stack []ast.Node, r *Reporter) {

	ft := p.Info.Types[sel].Type
	if ft == nil || !isReferenceType(ft) {
		return
	}
	// Capture: any reference to owned state inside a function literal that
	// escapes its frame aliases the state out, however indirectly the value
	// is used inside the closure.
	for i := len(stack) - 2; i >= 0; i-- {
		if fl, ok := stack[i].(*ast.FuncLit); ok {
			if funcLitEscapes(fl, stack[:i]) {
				r.Report(sel.Sel.Pos(), checkShardown,
					"shard-owned %s.%s captured by an escaping function literal in %s: the closure outlives the dispatch barrier and aliases shard state",
					ot.Name(), sel.Sel.Name, fd.Name.Name)
				return
			}
			break // non-escaping closure: its body is part of the frame
		}
	}
	// Direct flow: walk outward past alias-preserving wrappers to see
	// whether the selector value itself is returned or sent.
	cur := ast.Node(sel)
	for i := len(stack) - 2; i >= 0; i-- {
		parent := stack[i]
		switch pn := parent.(type) {
		case *ast.ParenExpr:
			cur = parent
			continue
		case *ast.ReturnStmt:
			if fd.Recv != nil && reconciliationMethods[fd.Name.Name] {
				return // explicit reconciliation point
			}
			if isConstructorName(fd.Name.Name) {
				return // pre-publication
			}
			for _, res := range pn.Results {
				if res == cur {
					r.Report(sel.Sel.Pos(), checkShardown,
						"shard-owned %s.%s aliased out via return from %s: owned state must stay inside the ownership domain (reconcile through Merge/Counts instead)",
						ot.Name(), sel.Sel.Name, fd.Name.Name)
					return
				}
			}
			return
		case *ast.SendStmt:
			if pn.Value == cur {
				r.Report(sel.Sel.Pos(), checkShardown,
					"shard-owned %s.%s sent on a channel from %s: a receiver would hold an alias that outlives the dispatch barrier",
					ot.Name(), sel.Sel.Name, fd.Name.Name)
			}
			return
		case ast.Expr:
			// Any other expression (index, call argument, binary op, ...)
			// derives a new value or stays local; the selector itself no
			// longer flows. Stop unless it is a plain passthrough.
			return
		default:
			return
		}
	}
}

// funcLitEscapes reports whether the function literal at the top of prefix
// outlives its enclosing call frame: spawned by go, sent on a channel,
// returned, or assigned/stored into non-local storage. A literal that is
// immediately invoked or passed as a plain call argument (sort.Slice and
// friends run it before returning) does not escape.
func funcLitEscapes(fl *ast.FuncLit, prefix []ast.Node) bool {
	if len(prefix) == 0 {
		return false
	}
	parent := prefix[len(prefix)-1]
	switch pn := parent.(type) {
	case *ast.GoStmt:
		return true
	case *ast.DeferStmt:
		return false // runs before the frame unwinds
	case *ast.SendStmt:
		return true
	case *ast.ReturnStmt:
		return true
	case *ast.AssignStmt:
		for _, lhs := range pn.Lhs {
			switch lhs.(type) {
			case *ast.SelectorExpr, *ast.IndexExpr:
				return true // stored into a field / element: outlives the frame
			}
		}
		return false
	case *ast.KeyValueExpr, *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if pn.Fun == fl {
			// Immediately invoked — unless the invocation is a go statement,
			// which runs the literal on a new goroutine past the barrier.
			if len(prefix) >= 2 {
				if _, isGo := prefix[len(prefix)-2].(*ast.GoStmt); isGo {
					return true
				}
			}
			return false
		}
		// Passed as an argument: conservatively treat goroutine spawners by
		// name (go-like helpers) as escaping, plain callbacks as not. The
		// tree's dispatch helpers take method values, not literals, so any
		// literal reaching here is a callback.
		if len(prefix) >= 2 {
			if _, isGo := prefix[len(prefix)-2].(*ast.GoStmt); isGo {
				return true
			}
		}
		return false
	}
	return false
}

// isConstructorName reports whether a function is a pre-publication
// constructor by the tree's convention.
func isConstructorName(name string) bool {
	return strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new") || name == "init"
}
