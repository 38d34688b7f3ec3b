package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Lockbalance verifies that every sync.Mutex/RWMutex acquisition in a
// function is paired with a release on all return paths — deferred or
// dominating. The middleware's hot path takes short critical sections
// (metrics registry, compiled-rule cache, breaker state) without defer to keep
// them cheap; that style is safe exactly as long as no early return
// slips between Lock and Unlock, which is the regression this analyzer
// exists to catch before it deadlocks a production query.
var Lockbalance = register(&Analyzer{
	Name:      "lockbalance",
	Doc:       "every Lock/RLock must have a matching Unlock/RUnlock on all return paths",
	NeedTypes: true,
	Run:       runLockbalance,
})

func runLockbalance(p *Pass) {
	for _, file := range p.Files {
		funcBodies(file, func(body *ast.BlockStmt) {
			checkLockBody(p, body)
		})
	}
}

// lockSite is one acquisition found at statement level.
type lockSite struct {
	stmt   ast.Stmt
	call   *ast.CallExpr
	recv   string // rendered receiver expression, e.g. "s.mu"
	method string // Lock or RLock
}

func checkLockBody(p *Pass, body *ast.BlockStmt) {
	var sites []lockSite
	topLevelStmts(body, func(s ast.Stmt) {
		es, ok := s.(*ast.ExprStmt)
		if !ok {
			return
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return
		}
		recv, method, ok := syncLockCall(p, call)
		if !ok || (method != "Lock" && method != "RLock") {
			return
		}
		sites = append(sites, lockSite{stmt: s, call: call, recv: recv, method: method})
	})
	for _, site := range sites {
		unlock := "Unlock"
		if site.method == "RLock" {
			unlock = "RUnlock"
		}
		f := fact{
			acquire: site.stmt,
			isRelease: func(c *ast.CallExpr) bool {
				recv, method, ok := syncLockCall(p, c)
				return ok && method == unlock && recv == site.recv
			},
			isTerminal: isNoReturnCall,
		}
		if leak := checkBalanced(body, f); leak != token.NoPos {
			pos := p.Fset.Position(leak)
			p.Reportf(site.call.Pos(),
				"%s.%s() is not released on every path (path escaping at line %d without %s.%s())",
				site.recv, site.method, pos.Line, site.recv, unlock)
		}
	}
}

// syncLockCall matches a method call on a sync.Mutex/RWMutex (including
// one promoted from an embedded field) and returns the rendered receiver
// expression and method name.
func syncLockCall(p *Pass, call *ast.CallExpr) (recv, method string, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	fn, okFn := p.ObjectOf(sel.Sel).(*types.Func)
	if !okFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return types.ExprString(sel.X), fn.Name(), true
	}
	return "", "", false
}

// isNoReturnCall recognizes calls that end the path without returning:
// os.Exit, log.Fatal*, runtime.Goexit, and the testing Fatal/Skip
// family (which call Goexit).
func isNoReturnCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	name := sel.Sel.Name
	if id, ok := sel.X.(*ast.Ident); ok {
		switch {
		case id.Name == "os" && name == "Exit",
			id.Name == "runtime" && name == "Goexit",
			id.Name == "log" && strings.HasPrefix(name, "Fatal"):
			return true
		}
	}
	switch name {
	case "Fatal", "Fatalf", "Skip", "Skipf", "SkipNow", "FailNow":
		return true
	}
	return false
}
