// Package analyzers holds the four repo-specific koalalint checks that
// mechanically enforce the determinism and hot-path invariants the
// byte-identical-summaries claim rests on:
//
//   - detwalltime:  no wall-clock time in deterministic packages
//   - detorder:     no unordered map iteration without a justification
//   - detrand:      no unseeded randomness
//   - hotpathalloc: no allocation on the event hot path
//
// See docs/determinism.md for the invariants and the escape hatches.
package analyzers

import (
	"go/ast"
	"go/types"
	"path"

	"repro/tools/koalalint/lint"
)

// deterministicDirs names the packages whose output feeds the
// byte-identical summaries: the sim kernel and everything that runs on it.
// Matching is by final import-path element so the analyzers apply equally
// to repro/internal/sim and to test fixtures under testdata/src.
// internal/server and internal/store are deliberately absent: they are the
// wall-clock edge of the system (uptime, journal timestamps, GC ages).
var deterministicDirs = map[string]bool{
	"sim":        true,
	"koala":      true,
	"gram":       true,
	"lrm":        true,
	"dynaco":     true,
	"runner":     true,
	"app":        true,
	"workload":   true,
	"stats":      true,
	"metrics":    true,
	"experiment": true,
}

// hotPathDirs is the scheduling stack swept by hotpathalloc: the sim
// kernel plus every package that schedules events in steady state. The
// setup-time packages (workload submission, experiment wiring) run once
// per replication, not once per event, and may allocate freely.
var hotPathDirs = map[string]bool{
	"sim":    true,
	"koala":  true,
	"gram":   true,
	"lrm":    true,
	"dynaco": true,
	"runner": true,
}

func isDeterministic(pkgPath string) bool { return deterministicDirs[path.Base(pkgPath)] }
func isHotPath(pkgPath string) bool       { return hotPathDirs[path.Base(pkgPath)] }

// All returns the koalalint suite in reporting order.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{DetWallTime, DetOrder, DetRand, HotPathAlloc}
}

// usedPackageFunc reports the package-level function from pkgPath that the
// identifier resolves to, if any. Methods and non-functions return nil.
func usedPackageFunc(info *types.Info, id *ast.Ident, pkgPath string) *types.Func {
	obj := info.Uses[id]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return nil
	}
	if fn.Signature().Recv() != nil {
		return nil
	}
	return fn
}

// inspectFiles walks every file of the package.
func inspectFiles(pkg *lint.Package, visit func(ast.Node) bool) {
	for _, f := range pkg.Files {
		ast.Inspect(f, visit)
	}
}
