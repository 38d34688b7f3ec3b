package analysis

import (
	"go/ast"
	"go/types"
)

// Wgbalance checks the three legs of the sync.WaitGroup contract the
// fan-out paths (scatter-gather dispatch, per-source extraction
// workers, a batch's per-query runs) depend on: Add must happen before the goroutine
// starts (an Add inside the spawned body races with Wait), Done must be
// reached on every path of the spawned function (one missed path hangs
// Wait forever under exactly the error conditions the path handles),
// and an Add/Wait pair in one function must have a Done somewhere in a
// goroutine it spawns. The all-paths and per-function-summary questions
// are answered by the dataflow core.
var Wgbalance = register(&Analyzer{
	Name:      "wgbalance",
	Doc:       "WaitGroup Add before spawn, Done on all paths of the spawned function, Wait matched",
	NeedTypes: true,
	Run:       runWgbalance,
})

func runWgbalance(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				checkSpawn(p, g)
			}
			return true
		})
		funcBodies(file, func(body *ast.BlockStmt) {
			checkWgPairing(p, body)
		})
	}
}

// wgCall matches a method call on a sync.WaitGroup and returns the
// rendered receiver expression and the method name (Add, Done, Wait).
func wgCall(p *Pass, call *ast.CallExpr) (recv, method string, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	fn, okFn := p.ObjectOf(sel.Sel).(*types.Func)
	if !okFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	sig, okSig := fn.Type().(*types.Signature)
	if !okSig || sig.Recv() == nil {
		return "", "", false
	}
	if named, okN := deref(sig.Recv().Type()).(*types.Named); !okN || named.Obj().Name() != "WaitGroup" {
		return "", "", false
	}
	switch fn.Name() {
	case "Add", "Done", "Wait":
		return types.ExprString(sel.X), fn.Name(), true
	}
	return "", "", false
}

// deref strips one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// rootIdent returns the leftmost identifier of an expression chain
// (wg → wg, s.wg → s), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// capturedFromOutside reports whether the receiver's root identifier is
// declared outside the given node — i.e. the WaitGroup is captured, not
// the literal's own.
func capturedFromOutside(p *Pass, recvExpr ast.Expr, scope ast.Node) bool {
	root := rootIdent(recvExpr)
	if root == nil {
		return false
	}
	obj := p.ObjectOf(root)
	if obj == nil {
		return false
	}
	return obj.Pos() < scope.Pos() || obj.Pos() > scope.End()
}

// checkSpawn inspects one go statement: an Add on a captured WaitGroup
// inside the spawned body, and Done reachability on all of the spawned
// function's paths.
func checkSpawn(p *Pass, g *ast.GoStmt) {
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		checkSpawnedLit(p, g, lit)
		return
	}
	checkSpawnedDecl(p, g)
}

func checkSpawnedLit(p *Pass, g *ast.GoStmt, lit *ast.FuncLit) {
	// Done receivers mentioned at the literal's own level (not inside a
	// further nested literal, whose custody is its own).
	doneRecvs := map[string]bool{}
	var scan func(n ast.Node) bool
	scan = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n != lit {
				return false
			}
		case *ast.CallExpr:
			recv, method, ok := wgCall(p, n)
			if !ok || !capturedFromOutside(p, n.Fun.(*ast.SelectorExpr).X, lit) {
				return true
			}
			switch method {
			case "Add":
				p.Reportf(n.Pos(), "%s.Add inside the spawned goroutine races with %s.Wait; call Add before the go statement", recv, recv)
			case "Done":
				doneRecvs[recv] = true
			}
		}
		return true
	}
	ast.Inspect(lit, scan)

	for recv := range doneRecvs {
		ok := dischargesOnAllPaths(lit.Body, func(c *ast.CallExpr) bool {
			r, m, okC := wgCall(p, c)
			return okC && m == "Done" && r == recv
		}, isNoReturnCall)
		if !ok {
			p.Reportf(g.Pos(), "%s.Done is not reached on every path of the spawned goroutine; defer %s.Done()", recv, recv)
		}
	}
}

// checkSpawnedDecl summarizes a named function spawned with a
// *sync.WaitGroup argument: if its body decrements the parameter at
// all, it must do so on every path.
func checkSpawnedDecl(p *Pass, g *ast.GoStmt) {
	var obj types.Object
	switch fun := g.Call.Fun.(type) {
	case *ast.Ident:
		obj = p.ObjectOf(fun)
	case *ast.SelectorExpr:
		obj = p.ObjectOf(fun.Sel)
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return
	}
	decl := p.FuncDeclOf(fn)
	if decl == nil {
		return
	}
	params := flattenParams(decl)
	for i := range g.Call.Args {
		if i >= len(params) || params[i] == nil {
			continue
		}
		t := p.TypeOf(g.Call.Args[i])
		if t == nil {
			continue
		}
		if named, okN := deref(t).(*types.Named); !okN ||
			named.Obj().Name() != "WaitGroup" || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
			continue
		}
		name := params[i].Name
		mentionsDone := false
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			if c, okC := n.(*ast.CallExpr); okC {
				if r, m, okW := wgCall(p, c); okW && m == "Done" && r == name {
					mentionsDone = true
				}
			}
			return !mentionsDone
		})
		if !mentionsDone {
			continue
		}
		ok := dischargesOnAllPaths(decl.Body, func(c *ast.CallExpr) bool {
			r, m, okC := wgCall(p, c)
			return okC && m == "Done" && r == name
		}, isNoReturnCall)
		if !ok {
			p.Reportf(g.Pos(), "%s.Done is not reached on every path of spawned %s; defer it", name, fn.Name())
		}
	}
}

// flattenParams expands a declaration's parameter fields into one ident
// per parameter, positionally aligned with call arguments.
func flattenParams(decl *ast.FuncDecl) []*ast.Ident {
	var out []*ast.Ident
	if decl.Type.Params == nil {
		return nil
	}
	for _, field := range decl.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range field.Names {
			out = append(out, name)
		}
	}
	return out
}

// checkWgPairing verifies, within one function body, that a local
// WaitGroup with both Add and Wait has a Done somewhere: directly in
// the body, or in a goroutine the body spawns. Receivers that are
// fields or that escape (address passed onward) are another owner's
// business and are skipped.
func checkWgPairing(p *Pass, body *ast.BlockStmt) {
	adds := map[string]ast.Node{}
	waits := map[string]bool{}
	credit := map[string]bool{} // a Done reachable from this body's spawns or statements
	escaped := map[string]bool{}

	noteArgEscapes := func(call *ast.CallExpr) {
		for _, arg := range call.Args {
			if u, okU := arg.(*ast.UnaryExpr); okU {
				if id, okI := u.X.(*ast.Ident); okI {
					escaped[id.Name] = true
				}
			}
			if id, okI := arg.(*ast.Ident); okI {
				escaped[id.Name] = true
			}
		}
	}

	var scan func(n ast.Node) bool
	scan = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			if lit, okL := n.Call.Fun.(*ast.FuncLit); okL {
				ast.Inspect(lit, func(m ast.Node) bool {
					if c, okC := m.(*ast.CallExpr); okC {
						if r, method, okW := wgCall(p, c); okW && method == "Done" {
							credit[r] = true
						}
					}
					return true
				})
			} else {
				noteArgEscapes(n.Call)
			}
			return false
		case *ast.CallExpr:
			if recv, method, okW := wgCall(p, n); okW {
				// Only plain local identifiers participate; a field
				// receiver's Add/Done may balance across methods.
				if _, okI := n.Fun.(*ast.SelectorExpr).X.(*ast.Ident); !okI {
					return true
				}
				switch method {
				case "Add":
					if adds[recv] == nil {
						adds[recv] = n
					}
				case "Done":
					credit[recv] = true
				case "Wait":
					waits[recv] = true
				}
				return true
			}
			noteArgEscapes(n)
		}
		return true
	}
	ast.Inspect(body, scan)

	for recv, site := range adds {
		if !waits[recv] || credit[recv] || escaped[recv] {
			continue
		}
		p.Reportf(site.Pos(), "%s.Add has no matching %s.Done — neither in this function nor in a goroutine it spawns — before %s.Wait hangs", recv, recv, recv)
	}
}
