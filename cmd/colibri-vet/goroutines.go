// goroutines.go — check "goroutines": worker fan-out must not leak. The
// sharded planes and netsim's engine spawn goroutines in exactly two
// disciplined shapes — a persistent pool joined by a dispatch barrier
// (shardpool) and a bounded scatter joined by a WaitGroup — and every
// channel that feeds them states its capacity. Two rules:
//
//  1. Joined goroutines: every `go` statement must have a recognizable join:
//     the spawned body (a function literal, or a same-package function or
//     method the analyzer can resolve and inspect) signals a
//     sync.WaitGroup (`wg.Done()`, usually deferred), sends its result on a
//     collection channel, or is a worker loop draining a channel
//     (`for x := range ch`), which the owner joins by closing the channel.
//     Anything else — fire-and-forget literals, cross-package spawns — is a
//     finding: an unjoined goroutine is state the dispatch barrier no
//     longer covers (and a leak under churn).
//
//  2. Explicit channel bounds: every channel make states its capacity
//     (`make(chan T, n)`); a bare `make(chan T)` is a finding. An implicit
//     zero capacity deadlocks fire-and-forget senders and hides the
//     fan-out bound the pool's memory argument needs.
package main

import (
	"go/ast"
	"go/types"
)

const checkGoroutines = "goroutines"

type goroutinesCheck struct{}

func (c *goroutinesCheck) Run(p *Pkg, r *Reporter) {
	// Index the package's function declarations so `go pkgFunc(...)` and
	// `go recv.method(...)` spawns can be inspected for a join.
	decls := map[types.Object]*ast.FuncDecl{}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if obj := p.Info.Defs[fd.Name]; obj != nil {
					decls[obj] = fd
				}
			}
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				c.checkGo(n, p, decls, r)
			case *ast.CallExpr:
				c.checkMakeChan(n, p, r)
			}
			return true
		})
	}
}

func (c *goroutinesCheck) checkGo(g *ast.GoStmt, p *Pkg, decls map[types.Object]*ast.FuncDecl, r *Reporter) {
	var body *ast.BlockStmt
	what := "goroutine"
	switch fun := g.Call.Fun.(type) {
	case *ast.FuncLit:
		body = fun.Body
	case *ast.Ident:
		if fd, ok := decls[p.Info.Uses[fun]]; ok {
			body = fd.Body
			what = fun.Name
		}
	case *ast.SelectorExpr:
		if fd, ok := decls[p.Info.Uses[fun.Sel]]; ok {
			body = fd.Body
			what = fun.Sel.Name
		}
	}
	if body == nil {
		r.Report(g.Pos(), checkGoroutines,
			"go statement spawns a function the analyzer cannot inspect for a join: wrap it in a literal that signals a WaitGroup or collection channel, or annotate //colibri:allow(goroutines)")
		return
	}
	if joinedBody(body, p.Info) {
		return
	}
	r.Report(g.Pos(), checkGoroutines,
		"unjoined goroutine (%s): no WaitGroup Done, result send, or channel-draining worker loop found — join every spawn (barrier, WaitGroup, or collected channel) so fan-out cannot leak", what)
}

// joinedBody recognizes the three join disciplines in a spawned body.
func joinedBody(body *ast.BlockStmt, info *types.Info) bool {
	joined := false
	ast.Inspect(body, func(n ast.Node) bool {
		if joined {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			// wg.Done() on a sync.WaitGroup.
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				if selInfo, ok := info.Selections[sel]; ok {
					if m, ok := selInfo.Obj().(*types.Func); ok && m.Pkg() != nil && m.Pkg().Path() == "sync" {
						joined = true
						return false
					}
				} else if t := info.Types[sel.X].Type; t != nil &&
					(t.String() == "sync.WaitGroup" || t.String() == "*sync.WaitGroup") {
					joined = true
					return false
				}
			}
		case *ast.SendStmt:
			// Result collection: the spawner (or a sibling) receives.
			joined = true
			return false
		case *ast.RangeStmt:
			// Worker loop over a channel: joined by close().
			if t := info.Types[n.X].Type; t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					joined = true
					return false
				}
			}
		}
		return true
	})
	return joined
}

// checkMakeChan flags channel makes without an explicit capacity.
func (c *goroutinesCheck) checkMakeChan(call *ast.CallExpr, p *Pkg, r *Reporter) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "make" || len(call.Args) == 0 {
		return
	}
	if b, ok := p.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
		return
	}
	t := p.Info.Types[call.Args[0]].Type
	if t == nil {
		return
	}
	if _, isChan := t.Underlying().(*types.Chan); !isChan {
		return
	}
	if len(call.Args) >= 2 {
		return // explicit bound
	}
	r.Report(call.Pos(), checkGoroutines,
		"channel made without an explicit capacity: state the fan-out bound (make(chan T, n))")
}
