package analyzers

import (
	"go/ast"
	"go/types"

	"repro/tools/koalalint/lint"
)

// allocBuiltins are the allocating builtins flagged inside
// //koalalint:hotpath functions.
var allocBuiltins = map[string]bool{"make": true, "new": true, "append": true}

// HotPathAlloc keeps the event hot path allocation-free.
var HotPathAlloc = &lint.Analyzer{
	Name: "hotpathalloc",
	Doc: `forbid allocation on the event hot path

Over the scheduling stack (internal/sim and the scheduler packages),
inside functions marked //koalalint:hotpath (the engine's dispatch loop
and heap operations), any allocating form is flagged: function
literals, composite literals, make, new and append. Events need no
check of their own: the engine schedules only pre-bound sim.Handlers
(AtOp/AfterOp/ImmediatelyOp), so no event carries a closure.

A site can carry //koalalint:alloc <why> when the allocation is
amortized or setup-only; the justification text is required and the
allocs/op regression gate (make bench-compare) keeps it honest.`,
	Run: runHotPathAlloc,
}

func runHotPathAlloc(pass *lint.Pass) error {
	pkg := pass.Pkg
	if !isHotPath(pkg.ImportPath) {
		return nil
	}
	report := func(n ast.Node, format string, args ...any) {
		if d, ok := pkg.DirectiveAt(n, "alloc"); ok {
			if d.Justification == "" {
				pass.Reportf(n.Pos(), "//koalalint:alloc needs a justification for the allocation it permits")
			}
			return
		}
		pass.Reportf(n.Pos(), format, args...)
	}

	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if _, hot := pkg.FuncDirective(fn, "hotpath"); !hot {
				continue
			}
			name := fn.Name.Name
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					report(n, "function literal allocates in hot-path function %s", name)
					return false // its body is a different (escaped) context
				case *ast.CompositeLit:
					report(n, "composite literal allocates in hot-path function %s", name)
				case *ast.CallExpr:
					if id, ok := n.Fun.(*ast.Ident); ok && allocBuiltins[id.Name] && isBuiltin(pkg.TypesInfo, id) {
						report(n, "%s allocates in hot-path function %s", id.Name, name)
					}
				}
				return true
			})
		}
	}
	return nil
}

// isBuiltin reports whether the identifier resolves to a language builtin
// (and not, say, a local function shadowing the name).
func isBuiltin(info *types.Info, id *ast.Ident) bool {
	_, ok := info.Uses[id].(*types.Builtin)
	return ok
}
