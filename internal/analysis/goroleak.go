package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Goroleak guards the fan-out boundaries of the query and cluster
// paths: every `go` statement there must either be joined — a
// WaitGroup the spawner waits on (the per-source extraction workers), a
// result channel the spawner reads (the hedged-dispatch loser) — or
// observe a cancellation seam (ctx.Done(), a stop channel, or a callee
// that takes a context). A goroutine with neither outlives the query that
// spawned it: under the million-user traffic the ROADMAP targets,
// "leaks one goroutine per query on the error path" is an outage with
// a delay timer. Test files are exempt — a test's goroutines die with
// the process.
var Goroleak = register(&Analyzer{
	Name:      "goroleak",
	Doc:       "goroutines on query/cluster paths must be joined or observe cancellation",
	NeedTypes: true,
	Run:       runGoroleak,
})

// goroleakScope lists the path segments of the packages on the hot
// query/cluster path, where an unjoined goroutine accumulates per
// request.
var goroleakScope = []string{"extract", "cluster", "core", "transport", "obs"}

func runGoroleak(p *Pass) {
	if !pathHasSegment(p.PkgPath, goroleakScope) {
		return
	}
	for _, file := range p.Files {
		if isTestFile(p, file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				checkGoroutine(p, g)
			}
			return true
		})
	}
}

func checkGoroutine(p *Pass, g *ast.GoStmt) {
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		if !hasJoinSeam(p, lit.Body) {
			reportLeak(p, g)
		}
		return
	}
	// Named function or method: a context argument is a cancellation
	// seam by contract; otherwise summarize the callee's body if it is
	// declared in this unit. An unresolvable callee stays silent — the
	// engine only reports what it can see.
	for _, arg := range g.Call.Args {
		if isContextValueType(p.TypeOf(arg)) {
			return
		}
	}
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
	if !hasJoinSeam(p, decl.Body) {
		reportLeak(p, g)
	}
}

func reportLeak(p *Pass, g *ast.GoStmt) {
	p.Reportf(g.Pos(), "goroutine is fire-and-forget: join it (WaitGroup or result channel) or give it a cancellation seam (ctx.Done/stop channel)")
}

// hasJoinSeam reports whether a spawned body communicates its
// completion or observes cancellation: a channel send or close (the
// spawner, or someone, can gather it), a channel receive or
// channel-range (bounded by a close or a Done/stop signal), a
// WaitGroup.Done, or a call that is handed a context.
func hasJoinSeam(p *Pass, body ast.Node) bool {
	seam := false
	ast.Inspect(body, func(n ast.Node) bool {
		if seam {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			seam = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				seam = true
			}
		case *ast.RangeStmt:
			if t := p.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					seam = true
				}
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" {
				seam = true
			}
			if _, method, ok := wgCall(p, n); ok && method == "Done" {
				seam = true
			}
			for _, arg := range n.Args {
				if isContextValueType(p.TypeOf(arg)) {
					seam = true
				}
			}
		}
		return !seam
	})
	return seam
}

// isContextValueType reports whether t is exactly context.Context.
func isContextValueType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// pathHasSegment reports whether the import path has a segment naming
// one of the scope packages (test-unit suffixes stripped).
func pathHasSegment(pkgPath string, scope []string) bool {
	for _, seg := range strings.Split(pkgPath, "/") {
		seg = strings.TrimSuffix(seg, "_test")
		for _, want := range scope {
			if seg == want {
				return true
			}
		}
	}
	return false
}

// isTestFile reports whether the file is a _test.go file; some
// analyzers (goroleak, errcheck) hold production code to a stricter
// standard than tests.
func isTestFile(p *Pass, file *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(file.Pos()).Filename, "_test.go")
}
