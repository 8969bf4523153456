package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/tools/koalalint/lint"
)

// testOnlyAllowed lists the exported names under internal/ that no
// non-test file references but that stay, each with the reason it stays.
var testOnlyAllowed = map[string]string{
	"backend.Remote.HealthyWorkers": "backend's external tests (server imports backend) read ring membership after a probe pass",
	"backend.Remote.RefreshHealth":  "backend's external tests run one probe pass on demand instead of sleeping for the health poller",
	"faults.NewSchedule":            "API of the test-support package internal/faults",
	"faults.Proxy.Accepted":         "API of the test-support package internal/faults",
	"faults.RoundTripper":           "API of the test-support package internal/faults",
	"faults.Schedule.Remaining":     "API of the test-support package internal/faults",
	"faults.Schedule.Served":        "API of the test-support package internal/faults",
	"koala.Job.HeldProcs":           "core's invariant test checks ReservedAt against planned minus held processors, stubs not yet recruited included",
	"koala.Job.State":               "core's tests observe the §IV-A job lifecycle (waiting, running, finished, rejected)",
	"obs.Registry.Value":            "server, backend and store tests read the /metrics values the service defines",
	"sim.Engine.Run":                "tests in many packages drain an engine without moving its clock to a horizon",
	"stats.TimeSeries.Len":          "the RunOnce goldens pin the sample count of each run's utilisation and grow series",
	"stats.TimeSeries.MaxValue":     "tests bound the utilisation peak (Figs. 7e/8e) by the grid's size; At and Sample see only chosen instants",
	"stats.TimeSeries.MeanOver":     "the reference the folded MeanUtilization is compared against bit for bit",
}

// TestNoTestOnlyExports fails on an exported name under internal/ that no
// non-test file of the module or of perfbench references, unless the
// allowlist above keeps it. Test files keep nothing alive: a name only
// tests call is either deleted (the test observes the same thing through
// API production uses) or listed with the reason it must stay.
//
// A use counts by generic origin. Uses inside a name's own declaration
// and a type's uses as its methods' receiver do not count. Methods that
// implement an interface, interface methods, embedded fields, fields with
// a json tag and Unwrap are not candidates: dynamic dispatch, an interface
// contract or reflection reaches them past any static reference.
func TestNoTestOnlyExports(t *testing.T) {
	// One go list from perfbench covers both modules: its go.mod
	// replaces repro with the parent directory.
	pkgs, err := lint.Load("../../perfbench", []string{"./...", "repro/..."})
	if err != nil {
		t.Fatal(err)
	}
	unused := testOnlyExports(pkgs)
	for _, name := range slices.Sorted(maps.Keys(unused)) {
		if _, ok := testOnlyAllowed[name]; !ok {
			t.Errorf("%s: %s is exported but only tests reference it; delete it, or allowlist it in tools/koalalint/exports_test.go with the reason it stays",
				unused[name], name)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(testOnlyAllowed)) {
		if _, ok := unused[name]; !ok {
			t.Errorf("allowlisted %s is gone or has a non-test reference; drop it from the allowlist", name)
		}
	}
}

// testOnlyExports returns the exported names under internal/ that no
// non-test file references, keyed "pkg.Name" or "pkg.Type.Name" (pkg is
// the path below internal/), with each declaration's position.
func testOnlyExports(pkgs []*lint.Package) map[string]token.Position {
	type decl struct {
		key      string
		pos      token.Position
		from, to token.Pos // the declaration's extent; uses inside it are self-uses
	}
	decls := map[types.Object]decl{}
	for _, pkg := range pkgs {
		rel, ok := strings.CutPrefix(pkg.ImportPath, "repro/internal/")
		if !ok {
			continue
		}
		add := func(obj types.Object, key string, from, to token.Pos) {
			if obj != nil && obj.Exported() {
				decls[obj] = decl{key: rel + "." + key, pos: pkg.Fset.Position(obj.Pos()), from: from, to: to}
			}
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := pkg.TypesInfo.Defs[d.Name]
					key := d.Name.Name
					if d.Recv != nil {
						key = recvName(d.Recv.List[0].Type) + "." + key
					}
					add(obj, key, d.Pos(), d.End())
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.ValueSpec:
							for _, n := range s.Names {
								add(pkg.TypesInfo.Defs[n], n.Name, s.Pos(), s.End())
							}
						case *ast.TypeSpec:
							add(pkg.TypesInfo.Defs[s.Name], s.Name.Name, s.Pos(), s.End())
							addFields(pkg.TypesInfo, s, func(obj types.Object, field *ast.Field) {
								add(obj, s.Name.Name+"."+obj.Name(), field.Pos(), field.End())
							})
						}
					}
				}
			}
		}
	}

	skip := implementsInterface(pkgs)
	for obj := range decls {
		if obj.Name() == "Unwrap" || skip(obj) {
			delete(decls, obj)
		}
	}
	for _, pkg := range pkgs {
		inRecv := map[*ast.Ident]bool{}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil {
					ast.Inspect(fn.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							inRecv[id] = true
						}
						return true
					})
				}
			}
		}
		for id, obj := range pkg.TypesInfo.Uses {
			obj = origin(obj)
			d, ok := decls[obj]
			if !ok || inRecv[id] || (id.Pos() >= d.from && id.Pos() < d.to) {
				continue
			}
			delete(decls, obj)
		}
	}
	out := make(map[string]token.Position, len(decls))
	for _, d := range decls {
		out[d.key] = d.pos
	}
	return out
}

// addFields reports a struct type's named fields without a json tag;
// embedded fields have no name, so they are never candidates.
func addFields(info *types.Info, s *ast.TypeSpec, add func(types.Object, *ast.Field)) {
	st, ok := s.Type.(*ast.StructType)
	if !ok {
		return
	}
	for _, field := range st.Fields.List {
		if field.Tag != nil {
			tag := strings.Trim(field.Tag.Value, "`")
			if _, ok := reflect.StructTag(tag).Lookup("json"); ok {
				continue
			}
		}
		for _, n := range field.Names {
			add(info.Defs[n], field)
		}
	}
}

// implementsInterface returns a predicate that holds for a method whose
// receiver implements an interface naming that method: the method is
// called through the interface, so its static references undercount it.
// The interfaces are every named interface in the loaded packages and
// their imports, and every interface type written in a loaded package.
func implementsInterface(pkgs []*lint.Package) func(types.Object) bool {
	byMethod := map[string][]*types.Interface{}
	addIface := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byMethod[name] = append(byMethod[name], iface)
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range pkgs {
		walk(pkg.Types)
		for _, tv := range pkg.TypesInfo.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
	}
	return func(obj types.Object) bool {
		fn, ok := obj.(*types.Func)
		if !ok {
			return false
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		rt := recv.Type()
		if _, isIface := rt.Underlying().(*types.Interface); isIface {
			return false
		}
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		for _, iface := range byMethod[fn.Name()] {
			if types.Implements(rt, iface) || types.Implements(types.NewPointer(rt), iface) {
				return true
			}
		}
		return false
	}
}

// origin maps a use of an instantiated generic function, method or field
// to its generic declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// recvName is the receiver's type name, without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return "?"
		}
	}
}
