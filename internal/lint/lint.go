// Package lint holds a repo-local API-shape check: every exported
// function in the public uwpos package that can fail (returns error) must
// accept a context.Context as its first parameter, so callers — above
// all the uwposd service — can always bound it with a deadline. The
// check runs as an ordinary test (see lint_test.go), keeping it inside
// `go test ./...` without external analyzer tooling.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"sort"
	"strings"
)

// Report is the outcome of checking one package directory.
type Report struct {
	// Violations lists exported error-returning functions without a
	// leading context.Context, formatted "file:line: name".
	Violations []string
	// CtxFirst lists the names ("Func" or "Type.Method") that do take a
	// context first — the data behind required-function assertions.
	CtxFirst map[string]bool
}

// Check parses every non-test .go file in dir as one package and applies
// the rule. allow maps "Func" or "Type.Method" names to an explanation;
// allowlisted functions are exempt.
func Check(dir string, allow map[string]string) (*Report, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	rep := &Report{CtxFirst: map[string]bool{}}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				name := qualifiedName(fn)
				if name == "" {
					continue // method on unexported type: not public API
				}
				if takesCtxFirst(fn) {
					rep.CtxFirst[name] = true
					continue
				}
				if !returnsError(fn) {
					continue
				}
				if exempt(fn, name, allow) {
					continue
				}
				pos := fset.Position(fn.Pos())
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("%s:%d: %s returns error without a leading context.Context", pos.Filename, pos.Line, name))
			}
		}
	}
	sort.Strings(rep.Violations)
	return rep, nil
}

// qualifiedName renders "Func" for functions and "Type.Method" for
// methods on exported types ("" for methods on unexported types).
func qualifiedName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	id, ok := t.(*ast.Ident)
	if !ok || !id.IsExported() {
		return ""
	}
	return id.Name + "." + fn.Name.Name
}

// takesCtxFirst reports whether the first parameter's type is written
// context.Context.
func takesCtxFirst(fn *ast.FuncDecl) bool {
	params := fn.Type.Params
	if params == nil || len(params.List) == 0 {
		return false
	}
	sel, ok := params.List[0].Type.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "context" && sel.Sel.Name == "Context"
}

// returnsError reports whether any result type is the identifier error.
func returnsError(fn *ast.FuncDecl) bool {
	res := fn.Type.Results
	if res == nil {
		return false
	}
	for _, f := range res.List {
		if id, ok := f.Type.(*ast.Ident); ok && id.Name == "error" {
			return true
		}
	}
	return false
}

// exempt reports whether a non-conforming function may skip the rule:
// constructors have nothing to cancel, and allowlisted functions carry
// their reason in the allowlist.
func exempt(fn *ast.FuncDecl, name string, allow map[string]string) bool {
	if strings.HasPrefix(fn.Name.Name, "New") {
		return true
	}
	_, ok := allow[name]
	return ok
}
