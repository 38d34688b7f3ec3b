package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism guards the property the whole chaos suite rests on: a
// fault-injection run is reproducible from its single seed. Inside the
// fault injector and the chaos/integration suites, wall-clock reads
// (time.Now), the global math/rand generator, and output produced while
// ranging over a map would each smuggle nondeterminism past the seed —
// so all three are forbidden there. Time must come from the injected
// clock, randomness from the injector's seeded *rand.Rand, and anything
// printed from a map must be sorted first.
var Determinism = register(&Analyzer{
	Name:      "determinism",
	Doc:       "fault injection and chaos suites must be reproducible from the seed",
	NeedTypes: true,
	Run:       runDeterminism,
})

// determinismScope lists the path segments that place a package inside
// the deterministic zone. The cluster is in scope because its failure
// detector, hedge timers, and latency measurements must run off the
// Options.Now/After seams — a raw clock call there would make the
// 3-node chaos suite irreproducible.
var determinismScope = []string{"faultinject", "integration", "planner", "cluster"}

// inDeterminismScope reports whether the unit's import path has a
// segment naming a deterministic-zone package.
func inDeterminismScope(pkgPath string) bool {
	return pathHasSegment(pkgPath, determinismScope)
}

func runDeterminism(p *Pass) {
	if !inDeterminismScope(p.PkgPath) {
		return
	}
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDeterministicCall(p, n)
			case *ast.RangeStmt:
				checkMapRangeOutput(p, n)
			}
			return true
		})
	}
}

// checkDeterministicCall flags wall-clock reads and the global
// math/rand generator.
func checkDeterministicCall(p *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := p.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	// Methods (e.g. (*rand.Rand).Intn on the seeded generator) are fine;
	// only package-level functions are globals.
	if fn.Type().(*types.Signature).Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		// time.After joins time.Now because the cluster's hedge and
		// heartbeat timers must fire from the injected After seam.
		if fn.Name() == "Now" || fn.Name() == "After" {
			p.Reportf(call.Pos(), "time."+fn.Name()+" in the deterministic zone; use the injected clock")
		}
	case "math/rand", "math/rand/v2":
		// Constructing a seeded generator is the sanctioned pattern.
		if fn.Name() == "New" || fn.Name() == "NewSource" || fn.Name() == "NewZipf" {
			return
		}
		p.Reportf(call.Pos(), "global math/rand.%s in the deterministic zone; draw from the seeded *rand.Rand", fn.Name())
	}
}

// checkMapRangeOutput flags loops that range over a map and write
// output from the loop body: Go randomizes map iteration order, so the
// produced bytes differ run to run even with a fixed seed.
func checkMapRangeOutput(p *Pass, rng *ast.RangeStmt) {
	t := p.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isOutputCall(p, call) {
			return true
		}
		p.Reportf(call.Pos(), "output inside a map-range loop is ordered by map iteration; collect and sort keys first")
		return true
	})
}

// isOutputCall recognizes calls that emit bytes: the fmt print family
// and Write*-style methods (io.Writer, strings.Builder, bufio.Writer…).
func isOutputCall(p *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if fn, ok := p.ObjectOf(sel.Sel).(*types.Func); ok && fn.Pkg() != nil {
		if fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Print") {
			return true
		}
		if fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Fprint") {
			return true
		}
	}
	return strings.HasPrefix(sel.Sel.Name, "Write")
}
