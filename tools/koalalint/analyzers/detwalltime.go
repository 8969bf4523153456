package analyzers

import (
	"go/ast"

	"repro/tools/koalalint/lint"
)

// wallClockFuncs are the package time entry points that read or depend on
// the machine clock. Pure data types (time.Duration arithmetic, constants)
// are fine: they carry no nondeterminism.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
	"After":     true,
	"AfterFunc": true,
	"Sleep":     true,
}

// DetWallTime forbids wall-clock time in the deterministic packages.
var DetWallTime = &lint.Analyzer{
	Name: "detwalltime",
	Doc: `forbid wall-clock time in deterministic packages

Simulation results must be a pure function of (config, seed). time.Now and
friends leak the machine clock into that function; simulated time comes
from the sim engine (Engine.Now, Engine.AtOp). Packages outside the
deterministic set (internal/server, internal/store) may use the clock.`,
	Run: runDetWallTime,
}

func runDetWallTime(pass *lint.Pass) error {
	pkg := pass.Pkg
	if !isDeterministic(pkg.ImportPath) {
		return nil
	}
	inspectFiles(pkg, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn := usedPackageFunc(pkg.TypesInfo, sel.Sel, "time")
		if fn == nil || !wallClockFuncs[fn.Name()] {
			return true
		}
		pass.Reportf(sel.Pos(),
			"time.%s reads the wall clock in a deterministic package; simulated time must come from the sim engine (Engine.Now / AtOp)",
			fn.Name())
		return true
	})
	return nil
}
