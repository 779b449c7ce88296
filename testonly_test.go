package rmtk_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyGolden lists the exported functions and methods that non-test code
// never names, one "dir Name" or "dir Recv.Name" per line.
const testOnlyGolden = "testdata/testonly.golden"

// TestTestOnlyExports keeps the list of exported functions and methods that
// only tests reach from growing. It collects every exported function and
// method declared in a non-test Go file of the module whose name appears as
// an identifier nowhere in non-test Go but in its own declaration, and
// compares that list with testOnlyGolden: a new entry fails (reach the name
// from the program, move it to an export_test.go, or delete it), and so does
// a golden entry that is no longer on the list (remove the line), so the
// golden can only shrink.
//
// The scan matches names, not types: a function counts as reached when any
// non-test file names an identifier of the same spelling, so common names
// (String, Len) are never listed. Methods of unexported types are skipped:
// nothing outside their package can call them, and the ones the program
// calls only through an interface (heap.Interface's Less, Swap, Pop) name no
// identifier. An exported type's method that the program calls only through
// an interface is the one kind of entry that may be added to the golden. The
// scan reads every package of the module at once, which a vet analyzer,
// seeing one package at a time, cannot.
func TestTestOnlyExports(t *testing.T) {
	got := testOnlyExports(t)
	data, err := os.ReadFile(testOnlyGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			want[line] = true
		}
	}
	for _, name := range got {
		if !want[name] {
			t.Errorf("%s is exported but only tests reach it: reach it from the program, move it to an export_test.go, or delete it (a method the program calls through an interface may be added to the golden)", name)
		}
		delete(want, name)
	}
	var stale []string
	for name := range want {
		stale = append(stale, name)
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("%s: %s is no longer test-only (or is gone); remove its line", testOnlyGolden, name)
	}
	t.Logf("%d exported functions and methods reached only from tests", len(got))
}

// testOnlyExports returns the sorted "dir [Recv.]Name" of every exported
// function, and exported method of an exported type, declared in a non-test
// file whose name no non-test file uses as an identifier outside a function
// declaration's name.
func testOnlyExports(t *testing.T) []string {
	t.Helper()
	type decl struct{ key, name string }
	var decls []decl
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if !fd.Name.IsExported() {
				continue
			}
			key := fd.Name.Name
			if fd.Recv != nil {
				recv := recvName(fd.Recv.List[0].Type)
				if !ast.IsExported(recv) {
					continue
				}
				key = recv + "." + key
			}
			decls = append(decls, decl{filepath.ToSlash(filepath.Dir(path)) + " " + key, fd.Name.Name})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, d := range decls {
		if !used[d.name] {
			out = append(out, d.key)
		}
	}
	sort.Strings(out)
	return out
}

// recvName names a method's receiver type without its pointer or type
// parameters.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
