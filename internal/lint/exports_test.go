package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// module is the whole module, loaded once per test binary: the load is
// almost all of TestModuleClean's time, and TestExportsHaveProductionUse
// reads the same packages.
var module struct {
	once sync.Once
	ld   *Loader
	pkgs []*Package
	err  error
}

// loadModule returns the loader that loaded the module and every package
// of it.
func loadModule(t *testing.T) (*Loader, []*Package) {
	t.Helper()
	module.once.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			module.err = err
			return
		}
		if module.ld, module.err = NewLoader(root); module.err != nil {
			return
		}
		module.pkgs, module.err = module.ld.LoadModule()
	})
	if module.err != nil {
		t.Fatal(module.err)
	}
	return module.ld, module.pkgs
}

// exportAllow names the declarations under internal/ that no non-test file
// uses and that stay anyway, each with its reason. An entry that names
// nothing, or whose identifier has gained a production use, fails
// TestExportsHaveProductionUse, so the list cannot go stale.
var exportAllow = map[string]string{
	// The legality oracle of the tiling transformation: tests replay the
	// tiled and wavefront orders of legal and illegal box tilings through
	// it. It walks TileSpace and TileIterations, which commands use too.
	"codegen.CheckOrder":     "legality oracle: checks an execution order against the dependences",
	"codegen.TiledOrder":     "legality oracle: the tiled sequential order, tile boxes in lexicographic order",
	"codegen.WavefrontOrder": "legality oracle: the tiled order under a linear schedule",

	// Fixtures the tests of two or more packages share.
	"fault.Unit":             "fixture: the runner's delay-injection tests draw from fault's hash family",
	"mp.Launch":              "fixture: in-process ranks for tests; tilevet's blockingdeadline keeps it out of cmd/",
	"mp.NewWorld":            "fixture: in-process world for tests; tilevet's blockingdeadline keeps it out of cmd/",
	"obs.TracksFromTrace":    "fixture: the sim tests build obs tracks from a simulated trace",
	"space.MustNew":          "fixture: literal spaces with non-zero lower bounds in tests",
	"stencil.NewWeighted":    "fixture: the runner tests run a second stencil through the executor",
	"tiling.MustRectangular": "fixture: literal rectangular tilings in tests",
	"topo.TwoLevel":          "fixture: the sim and simnet tests build a two-level fabric",

	// Paper formulas the tests check against the paper's own numbers.
	"tiling.Tiling.CommVolume":   "formula (1), checked against the paper's V_comm and against formula (2)",
	"model.Machine.OptimalGEq5":  "eq. 5's optimal tile volume, checked against the paper's g*",
	"model.Grid3D.PPaperOverlap": "Section 5's P(g), checked against Fig. 12's theoretical column",

	"model.WriteMachine": "the writer a fitted machine file needs (ROADMAP item 12); tested against ReadMachine",
}

// dispatched declares the standard-library interfaces whose methods the
// standard library calls on the module's values, out of sight of
// types.Info.Uses. A method that implements one of them counts as used.
// Each must still rescue some method, or TestExportsHaveProductionUse
// fails.
const dispatched = `package dispatched

import (
	"encoding/json"
	"fmt"
)

type (
	stringer    = fmt.Stringer                // fmt's %v and %s call String
	marshaler   = json.Marshaler              // encoding/json calls MarshalJSON
	unmarshaler = json.Unmarshaler            // encoding/json calls UnmarshalJSON
	iser        interface{ Is(error) bool }   // errors.Is calls Is
	unwrapper   interface{ Unwrap() error }   // errors.Is, As and Unwrap call Unwrap
)
`

// dispatchedMethods type-checks dispatched with imp and returns its
// interfaces' methods by name.
func dispatchedMethods(t *testing.T, imp types.Importer) map[string][]*types.Func {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "dispatched.go", dispatched, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := (&types.Config{Importer: imp}).Check("dispatched", fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]*types.Func{}
	for _, name := range pkg.Scope().Names() {
		iface := pkg.Scope().Lookup(name).Type().Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			out[m.Name()] = append(out[m.Name()], m)
		}
	}
	return out
}

// exportedDecl is one top-level function, type, variable or exported
// constant, or one method, declared under internal/, with the source span of
// its declaration.
type exportedDecl struct {
	name       string // package.Name or package.Type.Method
	pos        token.Position
	start, end token.Pos
}

// unusedExports returns, sorted by name, every top-level function, type,
// variable and exported constant, and every method, declared in an
// internal/ package of pkgs that no file of pkgs reaches (the loader reads
// no _test.go file), plus every such identifier declared. A declaration is
// reached when it is used outside every tracked declaration (in cmd/, in
// an init function, ...) or inside a reached one other than itself, so a
// cycle of declarations that only use each other is unused as a whole. A
// method is also reached when its receiver type implements the interface
// of a used interface method of the same name (the call goes through the
// interface), or of one of the extra interface methods, which it returns
// each with the number of otherwise unused methods it kept. An unused
// declaration that is a key of keep is reported but reaches what it uses.
func unusedExports(modulePath string, pkgs []*Package, extra map[string][]*types.Func, keep map[string]string) (unused []exportedDecl, declared map[string]bool, rescued map[*types.Func]int) {
	prefix := modulePath + "/internal/"
	decls := map[types.Object]*exportedDecl{}
	declared = map[string]bool{}
	add := func(p *Package, id *ast.Ident, name string, node ast.Node) {
		obj := p.Info.Defs[id]
		if obj == nil {
			return
		}
		d := &exportedDecl{name: name, pos: p.Fset.Position(id.Pos()), start: node.Pos(), end: node.End()}
		decls[obj] = d
		declared[name] = true
	}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, prefix) {
			continue
		}
		short := strings.TrimPrefix(p.Path, prefix)
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Name.Name == "init" || decl.Name.Name == "_" {
						continue // run by the runtime, or nothing to name
					}
					name := short + "." + decl.Name.Name
					if decl.Recv != nil {
						name = short + "." + recvName(decl.Recv.List[0].Type) + "." + decl.Name.Name
					}
					add(p, decl.Name, name, decl)
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							if spec.Name.Name != "_" {
								add(p, spec.Name, short+"."+spec.Name.Name, spec)
							}
						case *ast.ValueSpec:
							// Unexported constants are left out: iota
							// members name values, not code.
							for _, id := range spec.Names {
								if id.Name != "_" && (decl.Tok == token.VAR || id.IsExported()) {
									add(p, id, short+"."+id.Name, spec)
								}
							}
						}
					}
				}
			}
		}
	}

	// Every use of a tracked declaration outside its own is an edge from
	// the declarations around it, or a root when none is. Declarations do
	// not nest, but one var spec may declare several names over one span.
	spans := make([]*exportedDecl, 0, len(decls))
	byStart := map[token.Pos][]types.Object{}
	for obj, d := range decls {
		if byStart[d.start] == nil {
			spans = append(spans, d)
		}
		byStart[d.start] = append(byStart[d.start], obj)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	around := func(pos token.Pos) []types.Object {
		i := sort.Search(len(spans), func(i int) bool { return spans[i].start > pos }) - 1
		if i < 0 || pos >= spans[i].end {
			return nil
		}
		return byStart[spans[i].start]
	}
	uses := map[types.Object]int{}             // uses outside the declaration
	edges := map[types.Object][]types.Object{} // user → used
	ifaceMethods := map[string][]*types.Func{} // used interface methods by name
	var roots []types.Object
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			obj = origin(obj)
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					ifaceMethods[fn.Name()] = append(ifaceMethods[fn.Name()], fn)
				}
			}
			d := decls[obj]
			if d == nil || d.start <= id.Pos() && id.Pos() < d.end {
				continue
			}
			uses[obj]++
			users := around(id.Pos())
			if users == nil {
				roots = append(roots, obj)
			}
			for _, u := range users {
				edges[u] = append(edges[u], obj)
			}
		}
	}

	// A method reached through an interface is a root too.
	rescued = map[*types.Func]int{}
	for _, ms := range extra {
		for _, m := range ms {
			rescued[m] = 0
		}
	}
	for obj := range decls {
		if implementsOne(obj, ifaceMethods[obj.Name()]) != nil {
			roots = append(roots, obj)
		} else if m := implementsOne(obj, extra[obj.Name()]); m != nil {
			roots = append(roots, obj)
			if uses[obj] == 0 {
				rescued[m]++
			}
		}
	}
	reached := map[types.Object]bool{}
	reach := func(from []types.Object) {
		for len(from) > 0 {
			obj := from[len(from)-1]
			from = from[:len(from)-1]
			if !reached[obj] {
				reached[obj] = true
				from = append(from, edges[obj]...)
			}
		}
	}
	reach(roots)
	var kept []types.Object // the unreached keys of keep
	for obj, d := range decls {
		if _, ok := keep[d.name]; ok && !reached[obj] {
			unused = append(unused, *d)
			kept = append(kept, obj)
		}
	}
	reach(kept)
	for obj, d := range decls {
		if !reached[obj] {
			unused = append(unused, *d)
		}
	}
	sort.Slice(unused, func(i, j int) bool { return unused[i].name < unused[j].name })
	return unused, declared, rescued
}

// implementsOne returns the first of the interface methods whose interface
// obj's receiver type implements, or nil if obj is no method or implements
// none of them.
func implementsOne(obj types.Object, methods []*types.Func) *types.Func {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if _, ok := t.(*types.Pointer); !ok {
		t = types.NewPointer(t)
	}
	for _, m := range methods {
		iface, ok := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if ok && types.Implements(t, iface) {
			return m
		}
	}
	return nil
}

// origin maps an instantiated generic function or method to its
// declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// recvName is the type name of a method receiver: T for T, *T, T[P], *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		default:
			return e.(*ast.Ident).Name
		}
	}
}

// TestExportsHaveProductionUse: every top-level function, type, variable
// and exported constant, and every method, declared under internal/ is used
// by some non-test file outside its own declaration, or sits on exportAllow
// with a reason. Unexported helpers count as much as exported API: code
// that only tests reach belongs in a _test.go file or nowhere. Uses are
// resolved by go/types, so an unused method is caught even while a method
// of the same name on another type is called.
func TestExportsHaveProductionUse(t *testing.T) {
	ld, pkgs := loadModule(t)
	unused, declared, rescued := unusedExports(ld.ModulePath, pkgs, dispatchedMethods(t, ld), exportAllow)
	flagged := map[string]bool{}
	for _, d := range unused {
		flagged[d.name] = true
		if exportAllow[d.name] == "" {
			rel, err := filepath.Rel(ld.ModuleRoot, d.pos.Filename)
			if err != nil {
				rel = d.pos.Filename
			}
			t.Errorf("%s:%d: %s has no use outside tests; delete it, move it into a _test.go file, or add it to exportAllow with a reason",
				rel, d.pos.Line, d.name)
		}
	}
	for name, reason := range exportAllow {
		switch {
		case strings.TrimSpace(reason) == "":
			t.Errorf("exportAllow[%q] has no reason", name)
		case !declared[name]:
			t.Errorf("exportAllow[%q] names nothing declared under internal/; delete the entry", name)
		case !flagged[name]:
			t.Errorf("exportAllow[%q] has a production use now; delete the entry", name)
		}
	}
	for m, n := range rescued {
		if n == 0 {
			t.Errorf("dispatched interface method %s keeps no method of the module; delete its interface", m.FullName())
		}
	}
}

// TestUnusedExportsFindsCycles runs the reachability on a small module: a
// pair of functions that only call each other is unused as a whole, a
// function only a keep entry calls is not, and the keep entry itself is
// reported.
func TestUnusedExportsFindsCycles(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module cyc\n",
		"internal/p/p.go": `package p

func Used() int { return 1 }

func ping(n int) int {
	if n <= 0 {
		return 0
	}
	return pong(n - 1)
}

func pong(n int) int { return ping(n - 1) }

func kept() int { return helper() }

func helper() int { return 2 }
`,
		"cmd/m/main.go": "package main\n\nimport \"cyc/internal/p\"\n\nfunc main() { _ = p.Used() }\n",
	} {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ld, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ld.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	unused, _, _ := unusedExports(ld.ModulePath, pkgs, nil, map[string]string{"p.kept": "fixture"})
	var got []string
	for _, d := range unused {
		got = append(got, d.name)
	}
	if want := []string{"p.kept", "p.ping", "p.pong"}; !slices.Equal(got, want) {
		t.Errorf("unused = %v, want %v", got, want)
	}
}
