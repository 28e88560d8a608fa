package capsim

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoTestOnlyProductionCode is the ratchet against production code that
// only tests reach. It type-checks every package of the module, its test
// files included, plus bench/ as a reader, and walks uses from the
// production roots: main and init, blank package-level vars, the root
// facade's exported identifiers, everything bench/ declares, and the
// entries of testdata/testonly.allow. A package-level declaration or method
// outside that closure fails the test: delete it, or move it into a
// _test.go file. An allowlist entry fails when it is no longer declared or
// when production reaches it without the list, so the list only shrinks.
func TestNoTestOnlyProductionCode(t *testing.T) {
	got, err := deadScan(".", "testdata/testonly.allow", "bench")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range got {
		t.Error(v)
	}
}

// TestDeadScanFixture pins one verdict per kind of case on a small module.
// Methods reached only through an interface (fmt.Stringer, http.Handler, a
// module interface) are live; so is a method on a generic receiver that
// production calls through an instantiation.
func TestDeadScanFixture(t *testing.T) {
	dir := filepath.Join("testdata", "deadcode")
	got, err := deadScan(dir, filepath.Join(dir, "testonly.allow"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"fixture/lib.Gone: allowlisted, but not declared",
		"fixture/lib.Memo.Unused: only tests reach it",
		"fixture/lib.Nothing: nothing reaches it",
		"fixture/lib.OnlyTest: only tests reach it",
		"fixture/lib.Oracle: allowlisted, but production reaches it",
		"fixture/lib.RefExported: only tests reach it",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("verdicts:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// deadScan returns the verdicts for the module at dir, sorted: one line per
// production declaration no root reaches, and one per stale allowlist
// entry. Each readers entry is a directory with its own go.mod whose every
// declaration, test files included, is a root.
func deadScan(dir, allowFile string, readers ...string) ([]string, error) {
	pkgs, err := loadPackages(dir, readers)
	if err != nil {
		return nil, err
	}
	allow, err := readAllowlist(allowFile)
	if err != nil {
		return nil, err
	}

	declOf := map[types.Object]*scanDecl{}
	scanned := map[string]types.Object{} // production declarations a verdict may name
	var roots, testRoots []types.Object
	for _, p := range pkgs.list {
		facade := p.path == pkgs.module && p.pkg.Name() != "main"
		for i, f := range p.files {
			for _, d := range f.Decls {
				for _, sd := range declsOf(d, pkgs.info) {
					prod := !p.test[i] && !p.reader
					root := p.reader || prod && sd.blank
					for _, o := range sd.objs {
						declOf[o] = sd
						switch {
						case !prod || sd.blank:
						case o.Name() == "main" && p.pkg.Name() == "main",
							facade && o.Exported() && o.Parent() == p.pkg.Scope(): // not a method
							root = true
						default:
							scanned[objName(o)] = o
						}
					}
					switch {
					case root:
						roots = append(append(roots, sd.objs...), sd.uses...)
					case p.test[i]:
						testRoots = append(append(testRoots, sd.objs...), sd.uses...)
					}
				}
			}
		}
	}

	prodOnly := reach(roots, declOf, pkgs.stdIfaces)
	withTests := reach(append(testRoots, roots...), declOf, pkgs.stdIfaces)
	var out []string
	var allowed []types.Object
	listed := map[types.Object]bool{}
	for _, name := range allow {
		o := scanned[name]
		switch {
		case o == nil:
			out = append(out, name+": allowlisted, but not declared")
		case prodOnly[o]:
			out = append(out, name+": allowlisted, but production reaches it")
		case !withTests[o]:
			out = append(out, name+": allowlisted, but nothing reaches it")
		default:
			listed[o] = true
			allowed = append(allowed, o)
		}
	}
	// An exported declaration needs its own line; an unexported one may be a
	// listed declaration's helper.
	live := reach(append(allowed, roots...), declOf, pkgs.stdIfaces)
	for name, o := range scanned {
		switch {
		case prodOnly[o], listed[o], live[o] && !o.Exported():
		case withTests[o]:
			out = append(out, name+": only tests reach it")
		default:
			out = append(out, name+": nothing reaches it")
		}
	}
	sort.Strings(out)
	return out, nil
}

// readAllowlist returns the declarations an allowlist names: one per line,
// followed by its reason; blank lines and # comments are skipped.
func readAllowlist(file string) ([]string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var names []string
	for n, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", file, n+1, name)
		}
		names = append(names, name)
	}
	return names, nil
}

// scanDecl is one package-level declaration: the objects it defines and
// the objects its syntax uses.
type scanDecl struct {
	objs  []types.Object
	uses  []types.Object
	blank bool // declares _ or is an init function: a root wherever it is built
}

// declsOf splits one top-level declaration into scanDecls: a function or
// method, or one spec of a const, var or type declaration.
func declsOf(d ast.Decl, info *types.Info) []*scanDecl {
	var out []*scanDecl
	add := func(node ast.Node, names ...*ast.Ident) {
		sd := &scanDecl{}
		for _, id := range names {
			sd.blank = sd.blank || id.Name == "_"
			if o := info.Defs[id]; o != nil {
				sd.objs = append(sd.objs, o)
			}
		}
		ast.Inspect(node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if o := origin(info.Uses[id]); o != nil {
					sd.uses = append(sd.uses, o)
				}
			}
			return true
		})
		out = append(out, sd)
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		add(d, d.Name)
		out[0].blank = d.Recv == nil && d.Name.Name == "init"
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.ValueSpec:
				add(s, s.Names...)
			case *ast.TypeSpec:
				add(s, s.Name)
			}
		}
	}
	return out
}

// origin maps a use to the declaration it names: an instantiated generic
// function or method to its generic declaration.
func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

// objName names a declaration as the allowlist does: import path, then the
// receiver's type name for a method, then the name.
func objName(o types.Object) string {
	name := o.Pkg().Path() + "."
	if f, ok := o.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			name += t.(*types.Named).Obj().Name() + "."
		}
	}
	return name + o.Name()
}

// reach returns every object the roots reach. Uses are followed through
// declarations. A method of a reached named type is reached when it
// implements a reached interface method: one the code calls through an
// interface value, or any method of an interface in stdIfaces, which the
// standard library may call on any value handed to it.
func reach(roots []types.Object, declOf map[types.Object]*scanDecl, stdIfaces []*types.Interface) map[types.Object]bool {
	type method struct {
		recv *types.Named
		fn   *types.Func
	}
	seen := map[types.Object]bool{}
	ifaceCalls := map[string][]*types.Interface{} // interface methods called, by name
	methods := map[string][]method{}              // methods of reached named types, by name
	var work []types.Object
	mark := func(o types.Object) {
		if !seen[o] {
			seen[o] = true
			work = append(work, o)
		}
	}
	implements := func(n *types.Named, iface *types.Interface) bool {
		return types.Implements(n, iface) || types.Implements(types.NewPointer(n), iface)
	}
	callIface := func(name string, iface *types.Interface) {
		ifaceCalls[name] = append(ifaceCalls[name], iface)
		for _, m := range methods[name] {
			if implements(m.recv, iface) {
				mark(m.fn)
			}
		}
	}
	for _, iface := range stdIfaces {
		for i := 0; i < iface.NumMethods(); i++ {
			callIface(iface.Method(i).Name(), iface)
		}
	}
	for _, o := range roots {
		mark(o)
	}
	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		if f, ok := o.(*types.Func); ok {
			if recv := f.Type().(*types.Signature).Recv(); recv != nil {
				if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
					callIface(f.Name(), iface)
				}
			}
		}
		if tn, ok := o.(*types.TypeName); ok && !tn.IsAlias() {
			if n, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < n.NumMethods(); i++ {
					m := n.Method(i)
					methods[m.Name()] = append(methods[m.Name()], method{n, m})
					for _, iface := range ifaceCalls[m.Name()] {
						if implements(n, iface) {
							mark(m)
							break
						}
					}
				}
			}
		}
		if sd := declOf[o]; sd != nil {
			for _, u := range sd.uses {
				mark(u)
			}
		}
	}
	return seen
}

// scanPkg is one package as the scan type-checks it. Its in-package test
// files are checked with it, as go test builds it, so one object graph
// serves production and tests; an external _test package is a scanPkg of
// its own.
type scanPkg struct {
	path   string
	files  []*ast.File
	test   []bool // test[i]: files[i] is a _test.go file
	reader bool   // every declaration is a root (bench/)
	pkg    *types.Package
	state  int // 0 unchecked, 1 checking, 2 checked
}

// scanPackages is the type-checked module and readers.
type scanPackages struct {
	module    string     // the scanned module's path
	list      []*scanPkg // sorted by path
	info      *types.Info
	stdIfaces []*types.Interface // every interface the imported standard library declares, and error
}

// loadPackages parses and type-checks the module at dir and the readers.
// Module packages are checked from source in import order; the standard
// library comes from export data.
func loadPackages(dir string, readers []string) (*scanPackages, error) {
	fset := token.NewFileSet()
	pkgs := map[string]*scanPkg{}
	module, err := parseModule(fset, dir, false, pkgs)
	if err != nil {
		return nil, err
	}
	for _, r := range readers {
		if _, err := parseModule(fset, filepath.Join(dir, r), true, pkgs); err != nil {
			return nil, err
		}
	}
	std, ifaces, err := stdImporter(fset, dir, pkgs)
	if err != nil {
		return nil, err
	}
	out := &scanPackages{
		module:    module,
		info:      &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		stdIfaces: ifaces,
	}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if q := pkgs[path]; q != nil {
			return q.pkg, nil
		}
		return std.Import(path)
	})}
	var check func(p *scanPkg) error
	check = func(p *scanPkg) error {
		switch p.state {
		case 1:
			return fmt.Errorf("import cycle through %s", p.path)
		case 2:
			return nil
		}
		p.state = 1
		for _, f := range p.files {
			for _, s := range f.Imports {
				if q := pkgs[importPath(s)]; q != nil {
					if err := check(q); err != nil {
						return err
					}
				}
			}
		}
		pkg, err := conf.Check(strings.TrimSuffix(p.path, " [test]"), fset, p.files, out.info)
		if err != nil {
			return fmt.Errorf("type-check %s: %v", p.path, err)
		}
		p.pkg, p.state = pkg, 2
		return nil
	}
	for _, p := range pkgs {
		out.list = append(out.list, p)
	}
	sort.Slice(out.list, func(i, j int) bool { return out.list[i].path < out.list[j].path })
	for _, p := range out.list {
		if err := check(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// parseModule parses every package of the module rooted at dir into pkgs,
// skipping testdata, hidden directories and nested modules, and returns the
// module path. An external test package is keyed by its import path plus
// "_test [test]".
func parseModule(fset *token.FileSet, dir string, reader bool, pkgs map[string]*scanPkg) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	var module string
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			module = f[1]
		}
	}
	if module == "" {
		return "", fmt.Errorf("%s/go.mod: no module line", dir)
	}
	return module, filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != dir {
				if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, filepath.Dir(path))
		ipath := module
		if rel != "." {
			ipath += "/" + filepath.ToSlash(rel)
		}
		test := strings.HasSuffix(path, "_test.go")
		if test && strings.HasSuffix(f.Name.Name, "_test") {
			ipath += "_test [test]"
		}
		p := pkgs[ipath]
		if p == nil {
			p = &scanPkg{path: ipath, reader: reader}
			pkgs[ipath] = p
		}
		p.files = append(p.files, f)
		p.test = append(p.test, test)
		return nil
	})
}

func importPath(s *ast.ImportSpec) string {
	return strings.Trim(s.Path.Value, `"`)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// stdImporter returns an importer for the standard-library packages pkgs
// import, reading the export data that one `go list -export -deps` run
// reports, and every interface those packages and their dependencies
// declare, plus error.
func stdImporter(fset *token.FileSet, dir string, pkgs map[string]*scanPkg) (types.Importer, []*types.Interface, error) {
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}
	need := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, s := range f.Imports {
				if path := importPath(s); pkgs[path] == nil && path != "unsafe" && !need[path] {
					need[path] = true
					args = append(args, path)
				}
			}
		}
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list -export: %v", err)
	}
	export := map[string]string{}
	var paths []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
			export[path] = file
			paths = append(paths, path)
		}
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f := export[path]; f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, path := range paths {
		pkg, err := imp.Import(path)
		if err != nil {
			return nil, nil, err
		}
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
					ifaces = append(ifaces, iface)
				}
			}
		}
	}
	return imp, ifaces, nil
}
