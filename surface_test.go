package restore

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAllowed names the declarations that may stay in non-test code
// although no non-test file of the module references them, each with
// the reason it stays. Keys are types.Func.FullName for functions and
// methods and "<package path>.<name>" for types, constants and
// variables.
var testOnlyAllowed = map[string]string{
	"(*repro/internal/dfs.Disk).SetSync":             "durability code; making sync the only mode deletes it with its field",
	"repro.withJobObserver":                          "driver seam through which the scheduler tests watch job states",
	"repro.withJobProgress":                          "driver seam through which the scheduler tests watch task progress",
	"repro.JobRunning":                               "public enum constant: a state Query.Status reports",
	"repro.JobFailed":                                "public enum constant: a state Query.Status reports",
	"repro.JobCanceled":                              "public enum constant: a state Query.Status reports",
	"repro.HeuristicOff":                             "public enum constant: the heuristic that stores no sub-jobs",
	"repro.Bag":                                      "public type: grouped results hold *Bag fields, and internal/tuple is unimportable outside the module",
	"(*repro.System).Cancel":                         "public API: cancels a caller's queries by ID or tag (README)",
	"(*repro/internal/dfs.PathError).Unwrap":         "errors.Is and errors.As reach it through an unnamed interface",
	"(*repro/internal/mapreduce.Engine).CachedPaths": "the only view of the batch cache from outside internal/mapreduce, for internal/core's TestNoDeadCacheEntries",
}

// TestNoTestOnlySurface fails when a non-test declaration of the module
// is referenced by no non-test file: production code holds only what
// production runs. benchmark/, cmd/ and examples/ count as production
// callers. It type-checks every non-test file of the module against the
// export data `go list -export` builds, collects what each file refers
// to, and lists every top-level function, method, type, constant and
// variable that nothing refers to outside its own declaration (and, for
// a type, outside its own methods). Skipped: methods that satisfy an
// interface (callers reach them through it), struct fields (encoding
// reaches them by reflection), main and init, declarations under
// benchmark/ and the test-support package internal/dfs/dfstest.
func TestNoTestOnlySurface(t *testing.T) {
	pkgs := listModule(t)
	fset := token.NewFileSet()
	exports := map[string]string{}
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok || f == "" {
			return nil, errors.New("no export data for " + path)
		}
		return os.Open(f)
	})

	type decl struct {
		obj types.Object
		pos token.Position
	}
	var (
		decls      []decl
		namedTypes []*types.Named
		used       = map[string]bool{}
		ifaces     = []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
		seen       = map[*types.Package]bool{}
	)
	var collectIfaces func(p *types.Package)
	collectIfaces = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, q := range p.Imports() {
			collectIfaces(q)
		}
	}

	for _, p := range pkgs {
		if p.Module == nil || p.Module.Path != "repro" {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		collectIfaces(pkg)
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams() == nil {
					namedTypes = append(namedTypes, named)
				}
			}
		}
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		for _, f := range files {
			for _, d := range f.Decls {
				recordUses(info, d, used)
			}
		}
		if p.ImportPath == "repro/benchmark" || p.ImportPath == "repro/internal/dfs/dfstest" {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if name == "main" {
				continue
			}
			decls = append(decls, decl{obj, fset.Position(obj.Pos())})
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					decls = append(decls, decl{m, fset.Position(m.Pos())})
				}
			}
		}
	}

	// A method an interface reaches, directly or promoted through an
	// embedded field, is called through the interface. Signatures are
	// compared as printed: a package type-checked from source and the
	// same package read from export data by an importer are distinct
	// objects, so types.Implements would not match them.
	for _, named := range namedTypes {
		mset := types.NewMethodSet(types.NewPointer(named))
		methods := map[string]types.Object{}
		for i := 0; i < mset.Len(); i++ {
			methods[mset.At(i).Obj().Name()] = mset.At(i).Obj()
		}
	ifaces:
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				m, ok := methods[it.Method(i).Name()]
				if !ok || signature(m.Type()) != signature(it.Method(i).Type()) {
					continue ifaces
				}
			}
			for i := 0; i < it.NumMethods(); i++ {
				used[surfaceKey(methods[it.Method(i).Name()])] = true
			}
		}
	}

	root, _ := os.Getwd()
	stale := maps.Clone(testOnlyAllowed)
	var bad []string
	for _, d := range decls {
		key := surfaceKey(d.obj)
		if used[key] {
			continue
		}
		if _, ok := testOnlyAllowed[key]; ok {
			delete(stale, key)
			continue
		}
		rel, err := filepath.Rel(root, d.pos.Filename)
		if err != nil {
			rel = d.pos.Filename
		}
		bad = append(bad, rel+":"+strconv.Itoa(d.pos.Line)+": "+key)
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("%s is referenced by no non-test file: delete it, or rewrite its tests to use a production path", b)
	}
	for key := range stale {
		t.Errorf("allowlist entry %s is stale: non-test code references it, or it is gone", key)
	}
}

// listModule runs `go list -export -deps -json ./...` from the module
// root: export data for every package the module's packages import, and
// the file lists of the module's own packages.
func listModule(t *testing.T) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-export", "-deps", "-json", "./...")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Module     *struct{ Path string }
}

// recordUses marks every package-level object and method that d refers
// to, except the objects d itself declares: a recursive call, or a
// method naming its receiver's type, does not make a declaration used.
func recordUses(info *types.Info, d ast.Decl, used map[string]bool) {
	self := map[string]bool{}
	declares := func(id *ast.Ident) {
		if obj := info.Defs[id]; obj != nil {
			self[surfaceKey(obj)] = true
		}
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		declares(d.Name)
		if fn, ok := info.Defs[d.Name].(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				rt := recv.Type()
				if p, ok := rt.(*types.Pointer); ok {
					rt = p.Elem()
				}
				if named, ok := rt.(*types.Named); ok {
					self[surfaceKey(named.Obj())] = true
				}
			}
		}
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				declares(s.Name)
			case *ast.ValueSpec:
				for _, n := range s.Names {
					declares(n)
				}
			}
		}
	}
	ast.Inspect(d, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		if fn, ok := obj.(*types.Func); !ok || fn.Type().(*types.Signature).Recv() == nil {
			if obj.Parent() != obj.Pkg().Scope() {
				return true // a local, a parameter or a field
			}
		}
		if key := surfaceKey(obj); !self[key] {
			used[key] = true
		}
		return true
	})
}

// signature prints a method's parameter and result types, without
// names and receiver, for matching a method to an interface's.
func signature(t types.Type) string {
	sig := t.(*types.Signature)
	var b strings.Builder
	for _, vars := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < vars.Len(); i++ {
			b.WriteString(types.TypeString(vars.At(i).Type(), nil) + ",")
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// surfaceKey names a package-level object or method the same way in the
// package that declares it and in the packages that import it.
func surfaceKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin().FullName()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
