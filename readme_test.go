package rmtk_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestREADMENamesExist fails when README names something that does not exist:
// a `go run ./<path>` whose package is gone, an `rmtbench -exp` experiment
// missing from cmd/rmtbench's experimentTable, an `rmtkctl` subcommand that
// cmd/rmtkctl's main does not dispatch, or an rmtk.Name that rmtk.go no
// longer declares. Each kind must occur at least once, so a README rewrite
// that drops a kind entirely shows up here rather than silently passing.
func TestREADMENamesExist(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	matches := func(kind, re string) [][]string {
		t.Helper()
		m := regexp.MustCompile(re).FindAllStringSubmatch(readme, -1)
		if len(m) == 0 {
			t.Errorf("README has no %s (pattern %q)", kind, re)
		}
		return m
	}

	for _, m := range matches("go run command", `go run \./([\w./-]+)`) {
		if gos, _ := filepath.Glob(filepath.Join(m[1], "*.go")); len(gos) == 0 {
			t.Errorf("README: %q names no Go package", m[0])
		}
	}

	experiments := tableNames(t, parseGo(t, "cmd/rmtbench/main.go"), "experimentTable")
	experiments["all"] = true
	for _, m := range matches("rmtbench experiment", `-exp (\w+)`) {
		if !experiments[m[1]] {
			t.Errorf("README: rmtbench has no experiment %q", m[1])
		}
	}

	subs, valueFlags := dispatch(parseGo(t, "cmd/rmtkctl/main.go"))
	for _, m := range matches("rmtkctl command", "rmtkctl((?: +[^\\s`]+)+)") {
		args := strings.Fields(m[1])
		for len(args) > 0 && strings.HasPrefix(args[0], "-") {
			if valueFlags[strings.TrimLeft(args[0], "-")] && len(args) > 1 {
				args = args[1:]
			}
			args = args[1:]
		}
		if len(args) == 0 || !subs[args[0]] {
			t.Errorf("README: %q names no rmtkctl subcommand", m[0])
		}
	}

	declared := exported(parseGo(t, "rmtk.go"))
	for _, m := range matches("rmtk name", `\brmtk\.([A-Z]\w*)`) {
		if !declared[m[1]] {
			t.Errorf("README: rmtk.go does not declare %s", m[0])
		}
	}
}

func parseGo(t *testing.T, path string) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// tableNames returns the leading string of every row of the composite-literal
// variable name, e.g. {"table1", "Table 1: …", …} → "table1".
func tableNames(t *testing.T, f *ast.File, name string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || vs.Names[0].Name != name {
			return true
		}
		for _, row := range vs.Values[0].(*ast.CompositeLit).Elts {
			names[stringLit(row.(*ast.CompositeLit).Elts[0])] = true
		}
		return false
	})
	if len(names) == 0 {
		t.Fatalf("no rows found in %s", name)
	}
	return names
}

// dispatch returns the string cases of main's switch statements and the
// names of the global flags that take a value (every flag.X but flag.Bool).
func dispatch(f *ast.File) (subs, valueFlags map[string]bool) {
	subs, valueFlags = map[string]bool{}, map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			return n.Name.Name == "main"
		case *ast.CaseClause:
			for _, e := range n.List {
				subs[stringLit(e)] = true
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || len(n.Args) == 0 || sel.Sel.Name == "Bool" {
				return true
			}
			if pkg, _ := sel.X.(*ast.Ident); pkg != nil && pkg.Name == "flag" {
				valueFlags[stringLit(n.Args[0])] = true
			}
		}
		return true
	})
	return subs, valueFlags
}

// exported returns every exported top-level name a file declares.
func exported(f *ast.File) map[string]bool {
	names := map[string]bool{}
	add := func(id *ast.Ident) {
		if id.IsExported() {
			names[id.Name] = true
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id)
					}
				}
			}
		}
	}
	return names
}

// stringLit unquotes a string literal ("" for any other expression).
func stringLit(e ast.Expr) string {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return ""
	}
	s, _ := strconv.Unquote(lit.Value)
	return s
}
