// determinism.go — check "determinism": packages tagged deterministic
// (simulation- and admission-facing code whose runs must be bit-reproducible
// under a fixed seed) must not read wall-clock time, must not draw from the
// global math/rand source, and must not iterate maps in an order-sensitive
// way.
//
// Flagged:
//   - calls to time.Now (and thus rand.NewSource(time.Now().UnixNano()));
//   - wall-clock waits — time.Sleep/After/Tick/NewTimer/NewTicker/AfterFunc:
//     real durations leak scheduling into results, which matters doubly
//     because netsim's engine runs event handlers on shardpool workers
//     (a handler that sleeps skews whole safe windows);
//   - calls to package-level math/rand functions (Intn, Float64, Shuffle,
//     Perm, ...) which use the process-global source — seeded *rand.Rand
//     methods are fine, as are rand.New/NewSource/NewZipf constructors;
//   - `select` with two or more communicating cases: when several channels
//     are ready the runtime picks uniformly at random, so the winner is
//     schedule-dependent — goroutine-spawned handlers (netsim's pool
//     workers) must drain a single channel instead;
//   - `range` over a map, unless the loop body provably only accumulates
//     order-insensitively (commutative compound assignments, counters,
//     min/max folds, writes keyed by the range key, delete), the file
//     carries //colibri:ordered, or the line a //colibri:allow(determinism).
package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

const checkDeterminism = "determinism"

// randConstructors are the package-level math/rand functions that are safe
// in deterministic code: they build an explicitly seeded generator instead
// of drawing from the global source.
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// timeReads are the time-package functions that read the wall clock.
var timeReads = map[string]bool{"Now": true, "Since": true, "Until": true}

// timeWaits are the time-package functions that wait on (or arm timers
// against) real durations; in deterministic code all waiting must happen in
// virtual time (netsim's event loop), never against the OS clock.
var timeWaits = map[string]bool{
	"Sleep": true, "After": true, "Tick": true,
	"NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// deterministicPkgs are the package names held to the determinism rules.
var deterministicPkgs = map[string]bool{
	"netsim": true, "cserv": true, "admission": true,
	"experiments": true, "reservation": true, "restree": true,
}

type determinismCheck struct{}

func (c *determinismCheck) Run(p *Pkg, r *Reporter) {
	if !deterministicPkgs[p.Name] {
		return
	}
	for _, f := range p.Files {
		filename := r.fset.Position(f.Pos()).Filename
		ast.Inspect(f, func(n ast.Node) bool {
			// Ranges are checked with their trailing statements in view, so
			// the collect-then-sort idiom can be recognized.
			var list []ast.Stmt
			switch n := n.(type) {
			case *ast.CallExpr:
				c.checkCall(n, p, r)
				return true
			case *ast.SelectStmt:
				c.checkSelect(n, p, r)
				return true
			case *ast.BlockStmt:
				list = n.List
			case *ast.CaseClause:
				list = n.Body
			case *ast.CommClause:
				list = n.Body
			default:
				return true
			}
			for i, s := range list {
				if rs, ok := s.(*ast.RangeStmt); ok {
					c.checkRange(rs, list[i+1:], p, r, filename)
				}
			}
			return true
		})
	}
}

// pkgFuncCall resolves a call of the form pkg.Fn where pkg is an imported
// package, returning the package path and function name.
func pkgFuncCall(call *ast.CallExpr, info *types.Info) (pkgPath, fn string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}

func (c *determinismCheck) checkCall(call *ast.CallExpr, p *Pkg, r *Reporter) {
	pkgPath, fn := pkgFuncCall(call, p.Info)
	switch pkgPath {
	case "time":
		if timeReads[fn] {
			r.Report(call.Pos(), checkDeterminism,
				"time.%s in deterministic package %s: thread an injectable clock (core.Clock / netsim virtual time)", fn, p.Name)
		}
		if timeWaits[fn] {
			r.Report(call.Pos(), checkDeterminism,
				"time.%s in deterministic package %s: wall-clock waits make runs schedule-dependent — wait in virtual time (Shard.After / Sim.After)", fn, p.Name)
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn] {
			r.Report(call.Pos(), checkDeterminism,
				"global math/rand.%s in deterministic package %s: use an explicitly seeded *rand.Rand", fn, p.Name)
		}
	}
}

// checkSelect flags select statements with two or more communicating cases:
// when several channels are ready, the Go runtime chooses uniformly at
// random, so the winning case — and everything downstream of it — depends on
// scheduling. A single comm clause (with or without default) is a plain
// conditional receive/send and stays deterministic; that is the shape
// shardpool's workers, which drain netsim's safe windows, use
// (`for sh := range work`).
func (c *determinismCheck) checkSelect(sel *ast.SelectStmt, p *Pkg, r *Reporter) {
	comm := 0
	for _, s := range sel.Body.List {
		if cc, ok := s.(*ast.CommClause); ok && cc.Comm != nil {
			comm++
		}
	}
	if comm >= 2 {
		r.Report(sel.Pos(), checkDeterminism,
			"select over %d channels in deterministic package %s: the ready-case choice is randomized by the runtime — drain one channel per goroutine (worker-pool pattern) instead", comm, p.Name)
	}
}

func (c *determinismCheck) checkRange(rs *ast.RangeStmt, rest []ast.Stmt, p *Pkg, r *Reporter, filename string) {
	tv, ok := p.Info.Types[rs.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if r.suppress.Ordered(filename) {
		return
	}
	if orderInsensitiveBody(rs, p.Info) {
		return
	}
	if collectThenSorted(rs, rest, p.Info) {
		return
	}
	r.Report(rs.Pos(), checkDeterminism,
		"map iteration order leaks into results in deterministic package %s: sort the keys, restructure as an order-insensitive fold, or annotate the file //colibri:ordered", p.Name)
}

// collectThenSorted recognizes the canonical fix for unordered iteration:
// a range whose body only appends map elements to slices, every one of
// which is passed to a sort call later in the same statement list. The
// intermediate order then never escapes.
func collectThenSorted(rs *ast.RangeStmt, rest []ast.Stmt, info *types.Info) bool {
	collected := map[string]bool{}
	var bodyOK func(s ast.Stmt) bool
	bodyOK = func(s ast.Stmt) bool {
		switch s := s.(type) {
		case *ast.AssignStmt:
			// x = append(x, pureArgs...)
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 || s.Tok != token.ASSIGN {
				return false
			}
			id, isIdent := s.Lhs[0].(*ast.Ident)
			if !isIdent {
				return false
			}
			call, isCall := s.Rhs[0].(*ast.CallExpr)
			if !isCall {
				return false
			}
			fn, isIdentFn := call.Fun.(*ast.Ident)
			if !isIdentFn || fn.Name != "append" || len(call.Args) < 2 {
				return false
			}
			if first, isFirst := call.Args[0].(*ast.Ident); !isFirst || first.Name != id.Name {
				return false
			}
			if !exprsSideEffectFree(call.Args[1:], info) {
				return false
			}
			collected[id.Name] = true
			return true
		case *ast.IfStmt:
			if s.Init != nil || !sideEffectFree(s.Cond, info) || s.Else != nil {
				return false
			}
			for _, bs := range s.Body.List {
				if !bodyOK(bs) {
					return false
				}
			}
			return true
		case *ast.BranchStmt:
			return s.Tok == token.CONTINUE
		}
		return false
	}
	for _, s := range rs.Body.List {
		if !bodyOK(s) {
			return false
		}
	}
	if len(collected) == 0 {
		return false
	}
	// Every collected slice must be sorted downstream.
	for _, s := range rest {
		ast.Inspect(s, func(n ast.Node) bool {
			call, isCall := n.(*ast.CallExpr)
			if !isCall || len(call.Args) == 0 {
				return true
			}
			pkgPath, fn := pkgFuncCall(call, info)
			isSort := (pkgPath == "sort" && fn != "Search" && fn != "SearchInts" && fn != "SearchStrings" && fn != "SearchFloat64s") ||
				(pkgPath == "slices" && (fn == "Sort" || fn == "SortFunc" || fn == "SortStableFunc"))
			if !isSort {
				return true
			}
			if arg, isIdent := call.Args[0].(*ast.Ident); isIdent {
				delete(collected, arg.Name)
			}
			return true
		})
	}
	return len(collected) == 0
}

// orderInsensitiveBody reports whether every statement of the range body is
// provably insensitive to iteration order: commutative compound assignments
// (+= *= |= &= ^=), counters (++/--), writes indexed by an expression
// involving the range key (distinct keys → distinct cells), delete from a
// map, min/max folds guarded by a comparison on the folded variable, and
// if/blocks composed of the same. Anything else — append, sends, calls with
// side effects, early returns — is treated as order-sensitive.
func orderInsensitiveBody(rs *ast.RangeStmt, info *types.Info) bool {
	keyIdent, _ := rs.Key.(*ast.Ident)
	var ok func(s ast.Stmt, guard ast.Expr) bool
	ok = func(s ast.Stmt, guard ast.Expr) bool {
		switch s := s.(type) {
		case *ast.IncDecStmt:
			return sideEffectFree(s.X, info)
		case *ast.AssignStmt:
			switch s.Tok {
			case token.ADD_ASSIGN, token.MUL_ASSIGN, token.OR_ASSIGN,
				token.AND_ASSIGN, token.XOR_ASSIGN:
				return exprsSideEffectFree(s.Rhs, info)
			case token.DEFINE:
				// Fresh per-iteration locals carry no cross-iteration state.
				return exprsSideEffectFree(s.Rhs, info)
			case token.ASSIGN:
				if !exprsSideEffectFree(s.Rhs, info) {
					return false
				}
				for _, lhs := range s.Lhs {
					if !assignTargetOK(lhs, keyIdent, guard, info) {
						return false
					}
				}
				return true
			}
			return false
		case *ast.ExprStmt:
			// delete(m, k) is order-insensitive (and legal mid-range).
			if call, isCall := s.X.(*ast.CallExpr); isCall {
				if id, isIdent := call.Fun.(*ast.Ident); isIdent && id.Name == "delete" {
					return exprsSideEffectFree(call.Args, info)
				}
			}
			return false
		case *ast.IfStmt:
			if s.Init != nil && !ok(s.Init, guard) {
				return false
			}
			if !sideEffectFree(s.Cond, info) {
				return false
			}
			for _, bs := range s.Body.List {
				if !ok(bs, s.Cond) {
					return false
				}
			}
			if s.Else != nil {
				switch e := s.Else.(type) {
				case *ast.BlockStmt:
					for _, bs := range e.List {
						if !ok(bs, s.Cond) {
							return false
						}
					}
				case *ast.IfStmt:
					return ok(e, guard)
				}
			}
			return true
		case *ast.BlockStmt:
			for _, bs := range s.List {
				if !ok(bs, guard) {
					return false
				}
			}
			return true
		case *ast.DeclStmt:
			return true
		case *ast.BranchStmt:
			return s.Tok == token.CONTINUE
		}
		return false
	}
	for _, s := range rs.Body.List {
		if !ok(s, nil) {
			return false
		}
	}
	return true
}

// assignTargetOK accepts plain `=` targets that are order-insensitive:
// an index expression whose index mentions the range key (distinct keys hit
// distinct cells), or an identifier that the enclosing if-condition guards
// by comparison (the min/max fold pattern `if v > best { best = v }`).
func assignTargetOK(lhs ast.Expr, key *ast.Ident, guard ast.Expr, info *types.Info) bool {
	if ix, isIndex := lhs.(*ast.IndexExpr); isIndex {
		if key != nil && mentionsObj(ix.Index, info.Defs[key]) {
			return true
		}
		return false
	}
	if id, isIdent := lhs.(*ast.Ident); isIdent && guard != nil {
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		return obj != nil && mentionsObj(guard, obj)
	}
	return false
}

// mentionsObj reports whether expr references obj.
func mentionsObj(expr ast.Expr, obj types.Object) bool {
	if obj == nil || expr == nil {
		return false
	}
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, isIdent := n.(*ast.Ident); isIdent {
			// mentionsObj is called with info from the enclosing check; use
			// name match as a fallback when resolution is unavailable.
			if id.Name == obj.Name() {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// sideEffectFree reports whether evaluating expr cannot mutate state:
// literals, identifiers, selectors, index/arithmetic/comparison expressions,
// type conversions, and calls to the pure builtins len/cap/min/max/abs.
func sideEffectFree(expr ast.Expr, info *types.Info) bool {
	pure := true
	ast.Inspect(expr, func(n ast.Node) bool {
		if !pure {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			// Type conversions (float64(x), IfID(i), MyT(v)) are pure.
			if tv, ok := info.Types[n.Fun]; ok && tv.IsType() {
				return true
			}
			id, isIdent := n.Fun.(*ast.Ident)
			if !isIdent {
				pure = false
				return false
			}
			switch id.Name {
			case "len", "cap", "min", "max":
				return true
			}
			pure = false
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW { // channel receive
				pure = false
				return false
			}
		}
		return true
	})
	return pure
}

func exprsSideEffectFree(exprs []ast.Expr, info *types.Info) bool {
	for _, e := range exprs {
		if !sideEffectFree(e, info) {
			return false
		}
	}
	return true
}
