package qcluster

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// goFile is one parsed source file with the directory (= package) it lives
// in and the local names under which it imports each package path.
type goFile struct {
	dir     string
	test    bool
	ast     *ast.File
	imports map[string]string // local name -> import path
}

// exportedFunc is an exported function or method declared outside a test.
type exportedFunc struct {
	dir, name string
	method    bool
	pos       token.Position
}

func (e exportedFunc) String() string {
	return e.pos.String() + ": " + e.name
}

// refs records, per file, which selectors and bare identifiers it uses.
type refs struct {
	bare      map[string]bool            // identifiers not in selector position
	selectors map[string]bool            // selector names on values, not on imported packages
	qualified map[string]map[string]bool // import path -> names used as alias.Name
}

func collectRefs(f goFile) refs {
	r := refs{bare: map[string]bool{}, selectors: map[string]bool{}, qualified: map[string]map[string]bool{}}
	declared := map[*ast.Ident]bool{}
	for _, d := range f.ast.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			declared[fd.Name] = true
		}
	}
	inSelector := map[*ast.Ident]bool{}
	ast.Inspect(f.ast, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			inSelector[n.Sel] = true
			if x, ok := n.X.(*ast.Ident); ok {
				if path, ok := f.imports[x.Name]; ok {
					if r.qualified[path] == nil {
						r.qualified[path] = map[string]bool{}
					}
					r.qualified[path][n.Sel.Name] = true
					break // pkg.Name is not a method call
				}
			}
			r.selectors[n.Sel.Name] = true
		case *ast.InterfaceType:
			// An interface method spec is a reference: implementations
			// exist to satisfy it.
			for _, m := range n.Methods.List {
				for _, name := range m.Names {
					r.selectors[name.Name] = true
				}
			}
		}
		return true
	})
	ast.Inspect(f.ast, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !declared[id] && !inSelector[id] {
			r.bare[id.Name] = true
		}
		return true
	})
	return r
}

// references reports whether a file with refs r in directory dir uses e.
// A package-level function is used as a bare name inside its own package
// or as alias.Name elsewhere; a method is used by any selector of its name.
func (r refs) references(dir string, e exportedFunc, importPath string) bool {
	if e.method {
		return r.selectors[e.name]
	}
	if dir == e.dir && r.bare[e.name] {
		return true
	}
	return r.qualified[importPath][e.name]
}

// TestNoTestOnlyExports fails on any exported function or method in
// internal/ or cmd/ that no non-test file in the repository, bench/
// included, references. An export only tests call stays when tests in at
// least two packages other than its own call it, because moving it into
// one _test.go would copy it into the others.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		af, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		f := goFile{dir: filepath.Dir(path), test: strings.HasSuffix(path, "_test.go"), ast: af, imports: map[string]string{}}
		for _, imp := range af.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			f.imports[name] = p
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var exports []exportedFunc
	for _, f := range files {
		if f.test || !(strings.HasPrefix(f.dir, "internal/") || strings.HasPrefix(f.dir, "cmd/")) {
			continue
		}
		for _, d := range f.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			exports = append(exports, exportedFunc{dir: f.dir, name: fd.Name.Name, method: fd.Recv != nil, pos: fset.Position(fd.Pos())})
		}
	}
	if len(exports) == 0 {
		t.Fatal("found no exported functions under internal/ or cmd/")
	}

	all := make([]refs, len(files))
	for i, f := range files {
		all[i] = collectRefs(f)
	}
	var bad []string
	for _, e := range exports {
		importPath := "repro/" + filepath.ToSlash(e.dir)
		used := false
		otherTestPkgs := map[string]bool{}
		for i, f := range files {
			if !all[i].references(f.dir, e, importPath) {
				continue
			}
			if !f.test {
				used = true
				break
			}
			if f.dir != e.dir {
				otherTestPkgs[f.dir] = true
			}
		}
		switch {
		case used:
		case len(otherTestPkgs) >= 2:
			t.Logf("test-only, kept: tests in %d other packages call %s", len(otherTestPkgs), e)
		default:
			bad = append(bad, e.String())
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("exported but referenced by no non-test file (and by tests in fewer than two other packages): %s", b)
	}
}
