package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// maxFuncLines caps the length of every non-test function in this
// package, from its func keyword to its closing brace. A function past
// it is split at its natural seams: the driver runs a query as one
// method per ReStore stage for this reason.
const maxFuncLines = 120

func TestFunctionLength(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			start, end := fset.Position(fn.Pos()), fset.Position(fn.End())
			if n := end.Line - start.Line + 1; n > maxFuncLines {
				t.Errorf("%s:%d: %s is %d lines, over %d", name, start.Line, fn.Name.Name, n, maxFuncLines)
			}
		}
	}
}
