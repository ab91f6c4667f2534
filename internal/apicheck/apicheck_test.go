package apicheck

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// allowlist names the exported declarations under internal/ that only
// tests use and that stay on purpose, each with the tests that need it.
// What an allowlisted declaration uses counts as used. An entry that no
// longer names a test-only declaration fails the test, so the list cannot
// go stale.
var allowlist = map[string]string{
	"embed.Index.Add":          "fills the reference index (embed, query tests)",
	"embed.Index.Item":         "reads the reference index back (embed, query tests)",
	"embed.NewIndex":           "builds the reference index that BuildIndex and Search are tested against (embed, query tests)",
	"fol.Arena.AtomFormula":    "turns an interned atom back into a formula (fol arena tests)",
	"fol.Arena.Term":           "turns an interned term back into a term (fol arena tests)",
	"fol.Arena.TermGround":     "reads the ground flag interning computes (fol arena tests)",
	"fol.Formula.Clone":        "deep-copies a test formula before the test rewrites it (smt EPR property test, fol printer reference)",
	"fol.Interp.Eval":          "the evaluation oracle transforms and solvers are checked against (fol, smt EPR property tests)",
	"fol.Interp.SetTrue":       "sets the oracle's true atoms (fol, smt EPR property tests)",
	"fol.NewInterp":            "builds the evaluation oracle (fol, smt EPR property tests)",
	"fol.Parse":                "writes test formulas as text (fol, scenario tests); FuzzParse fuzzes it",
	"graph.Graph.Node":         "reads back a node's kind (graph tests)",
	"graph.Hierarchy.Depth":    "checks hierarchy depths (graph TestHierarchyBasics)",
	"graph.Hierarchy.Subsumes": "the subsumption oracle of the graph, kg, query and taxonomy tests",
	"llm.FlakyClient.Complete": "injects the model failures extract's degradation tests run into (extract, llm tests)",
	"obs.Histogram.Count":      "counts observations (obs, server, query, ingest tests)",
	"replica.Follower.Kill":    "the replication conformance suite's SIGKILL (replica tests)",
	"sat.Solver.Model":         "reads the model the SAT tests check against the clauses (sat tests)",
	"sat.Solver.NumClauses":    "checks a solved problem's clause count (sat TestStatsAccumulate)",
	"smt.Solver.CheckSatCtx":   "runs a check under a cancellable context (smt cancellation tests)",
	"smtlib.ParseOne":          "re-parses a printed s-expression (smtlib tests, FuzzParse)",
}

// TestNoDeadExports fails on every exported function, method, variable or
// constant under internal/ that no non-test code reachable from outside
// internal/ uses and that the allowlist does not name.
func TestNoDeadExports(t *testing.T) {
	l, err := newLoader()
	if err != nil {
		t.Fatal(err)
	}
	paths, err := l.packagePaths()
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		if _, err := l.load(path); err != nil {
			t.Fatal(err)
		}
	}
	r := l.reach()
	testOnly := r.deadExports()
	for name := range allowlist {
		if u, ok := testOnly[name]; ok {
			r.mark(u)
		} else {
			t.Errorf("allowlist entry %s names no test-only declaration; remove it", name)
		}
	}
	r.propagate()
	var unexpected []string
	for name := range r.deadExports() {
		unexpected = append(unexpected, name)
	}
	sort.Strings(unexpected)
	if len(unexpected) > 0 {
		t.Errorf("exported declarations under internal/ that only tests use (delete them, or allowlist them with a reason):\n\t%s",
			strings.Join(unexpected, "\n\t"))
	}
}

// loader type-checks the module's and the benchmark module's packages from
// their non-test files, and the standard library from source.
type loader struct {
	fset   *token.FileSet
	root   string // directory holding the module's go.mod
	module string // the module path
	std    types.Importer
	pkgs   map[string]*pkg // nil while the package is being checked
}

type pkg struct {
	types *types.Package
	files []*ast.File
	info  *types.Info
}

func newLoader() (*loader, error) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		return nil, err
	}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var module string
	for _, line := range strings.Split(string(mod), "\n") {
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			module = strings.TrimSpace(rest)
		}
	}
	if module == "" {
		return nil, errors.New("go.mod declares no module")
	}
	// Pure-Go standard library files suffice for type-checking, and they
	// spare the source importer from running cgo.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &loader{
		fset:   fset,
		root:   root,
		module: module,
		std:    importer.ForCompiler(fset, "source", nil),
		pkgs:   map[string]*pkg{},
	}, nil
}

// packagePaths lists the import path of every directory under the module
// root, bench/ included, that holds non-test Go files.
func (l *loader) packagePaths() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != l.root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		var noGo *build.NoGoError
		switch bp, err := build.ImportDir(path, 0); {
		case errors.As(err, &noGo):
		case err != nil:
			return err
		case len(bp.GoFiles) > 0:
			rel, err := filepath.Rel(l.root, path)
			if err != nil {
				return err
			}
			paths = append(paths, l.importPath(rel))
		}
		return nil
	})
	return paths, err
}

func (l *loader) importPath(rel string) string {
	if rel == "." {
		return l.module
	}
	return l.module + "/" + filepath.ToSlash(rel)
}

func (l *loader) Import(path string) (*types.Package, error) {
	if path != l.module && !strings.HasPrefix(path, l.module+"/") {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (l *loader) load(path string) (*pkg, error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	l.pkgs[path] = nil
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.module)))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &pkg{info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// unit is one top-level declaration: a function or method, or one spec
// of a var, const or type declaration.
type unit struct {
	node ast.Node
	info *types.Info
	objs []types.Object
	live bool
}

// reachability marks the checked packages' declarations live. Every
// declaration outside internal/ is live, and so is a package's init; a
// declaration is live when a live one uses it, and a method is live when
// its receiver type is live and an interface declares a method of the
// same name and signature.
type reachability struct {
	l      *loader
	unitOf map[types.Object]*unit
	ifaces ifaceMethods
	queue  []*unit
}

// reach collects the checked packages' declarations and marks the live
// ones.
func (l *loader) reach() *reachability {
	r := &reachability{l: l, unitOf: map[types.Object]*unit{}, ifaces: l.interfaceMethods()}
	internal := l.module + "/internal/"
	for path, p := range l.pkgs {
		isRoot := !strings.HasPrefix(path, internal)
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					u := &unit{node: d, info: p.info, objs: []types.Object{p.info.Defs[d.Name]}}
					r.unitOf[u.objs[0]] = u
					if isRoot || (d.Recv == nil && d.Name.Name == "init") {
						r.mark(u)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						u := &unit{node: spec, info: p.info}
						switch s := spec.(type) {
						case *ast.ValueSpec:
							for _, name := range s.Names {
								if obj := p.info.Defs[name]; obj != nil {
									u.objs = append(u.objs, obj)
								}
							}
						case *ast.TypeSpec:
							u.objs = append(u.objs, p.info.Defs[s.Name])
						}
						for _, obj := range u.objs {
							r.unitOf[obj] = u
						}
						if isRoot {
							r.mark(u)
						}
					}
				}
			}
		}
	}
	r.propagate()
	return r
}

func (r *reachability) mark(u *unit) {
	if u != nil && !u.live {
		u.live = true
		r.queue = append(r.queue, u)
	}
}

// propagate marks live what the marked declarations use, until nothing
// more is marked.
func (r *reachability) propagate() {
	for len(r.queue) > 0 {
		u := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		ast.Inspect(u.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := u.info.Uses[id]; obj != nil {
					r.mark(r.unitOf[origin(obj)])
				}
			}
			return true
		})
		for _, obj := range u.objs {
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); r.ifaces.declares(m) {
					r.mark(r.unitOf[m])
				}
			}
		}
	}
}

// deadExports returns the exported functions, methods, variables and
// constants under internal/ that are not live, by name.
func (r *reachability) deadExports() map[string]*unit {
	internal := r.l.module + "/internal/"
	dead := map[string]*unit{}
	for obj, u := range r.unitOf {
		switch obj.(type) {
		case *types.Func, *types.Var, *types.Const:
			if !u.live && obj.Exported() && strings.HasPrefix(obj.Pkg().Path(), internal) {
				dead[r.l.name(obj)] = u
			}
		}
	}
	return dead
}

// name renders obj as the allowlist does: the package's path below the
// module, then the receiver's type name for a method, then the name, all
// joined by dots ("graph.Graph.Node").
func (l *loader) name(obj types.Object) string {
	name := strings.TrimPrefix(obj.Pkg().Path(), l.module+"/internal/") + "."
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			name += t.(*types.Named).Obj().Name() + "."
		}
	}
	return name + obj.Name()
}

// origin maps a use of an instantiated generic declaration to the
// declaration itself.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// ifaceMethods indexes interface methods by name.
type ifaceMethods map[string][]*types.Func

// declares reports whether an interface declares a method with m's name
// and signature.
func (im ifaceMethods) declares(m *types.Func) bool {
	for _, f := range im[m.Name()] {
		if types.Identical(f.Type(), m.Type()) {
			return true
		}
	}
	return false
}

// interfaceMethods collects the methods of every interface that a checked
// package, or a standard-library package they import, declares at package
// level, and of every interface type written in the checked packages. An
// interface written inside a standard-library function, such as the one
// errors.Unwrap asserts, is not seen: a method reached only through one
// needs an allowlist entry.
func (l *loader) interfaceMethods() ifaceMethods {
	im := ifaceMethods{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				im[m.Name()] = append(im[m.Name()], m)
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range l.pkgs {
		walk(p.types)
		for _, tv := range p.info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return im
}
