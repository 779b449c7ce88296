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
	"sync"
	"testing"
)

// The two ratchets below read one parse of the module's non-test Go files:
// testOnlyGolden lists the exported functions and methods that non-test code
// never names, one "dir Name" or "dir Recv.Name" per line, and knobsGolden
// every exported field of an exported *Config, *Options or *Quota struct
// outside bench/, one "dir Type.Field" per line.
const (
	testOnlyGolden = "testdata/testonly.golden"
	knobsGolden    = "testdata/knobs.golden"
)

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
	checkGolden(t, testOnlyGolden, got,
		"%s is exported but only tests reach it: reach it from the program, move it to an export_test.go, or delete it (a method the program calls through an interface may be added to the golden)",
		"%s: %s is no longer test-only (or is gone); remove its line")
	t.Logf("%d exported functions and methods reached only from tests", len(got))
}

// TestKnobs keeps the count of settable options in review: every exported
// field of an exported struct whose name ends in Config, Options or Quota,
// declared in non-test Go outside bench/, must have its line in knobsGolden,
// and every golden line must name such a field. A change that adds a knob
// adds its line, and one that removes a knob removes it, so each change's
// knobs show in its diff. A new knob needs a program caller that sets a value
// other than its default; tests and examples do not count.
func TestKnobs(t *testing.T) {
	got := knobs(t)
	checkGolden(t, knobsGolden, got,
		"%s is a new knob: add its line to the golden, or make it a constant if no program caller sets it",
		"%s: %s is no longer a knob (or is gone); remove its line")
	t.Logf("%d knobs", len(got))
}

// checkGolden compares got with the golden file's lines, ignoring blank and
// "#" lines: each name missing from the golden fails with added, each golden
// line missing from got with stale.
func checkGolden(t *testing.T, golden string, got []string, added, stale string) {
	t.Helper()
	data, err := os.ReadFile(golden)
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
			t.Errorf(added, name)
		}
		delete(want, name)
	}
	var gone []string
	for name := range want {
		gone = append(gone, name)
	}
	sort.Strings(gone)
	for _, name := range gone {
		t.Errorf(stale, golden, name)
	}
}

// sourceFile is one parsed non-test Go file of the module.
type sourceFile struct {
	dir string // slash-separated, relative to the module root
	f   *ast.File
}

var (
	parseOnce   sync.Once
	parsedFiles []sourceFile
	parseErr    error
)

// moduleFiles parses every non-test Go file of the module (bench/ included)
// once per test binary.
func moduleFiles(t *testing.T) []sourceFile {
	t.Helper()
	parseOnce.Do(func() {
		parseErr = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
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
			parsedFiles = append(parsedFiles, sourceFile{filepath.ToSlash(filepath.Dir(path)), f})
			return nil
		})
	})
	if parseErr != nil {
		t.Fatal(parseErr)
	}
	return parsedFiles
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
	for _, sf := range moduleFiles(t) {
		declared := map[*ast.Ident]bool{}
		for _, d := range sf.f.Decls {
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
			decls = append(decls, decl{sf.dir + " " + key, fd.Name.Name})
		}
		ast.Inspect(sf.f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
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

// knobs returns the sorted "dir Type.Field" of every exported named field of
// every exported top-level struct type whose name ends in Config, Options or
// Quota, declared in a non-test file outside bench/.
func knobs(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, sf := range moduleFiles(t) {
		if sf.dir == "bench" || strings.HasPrefix(sf.dir, "bench/") {
			continue
		}
		for _, d := range sf.f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				name := ts.Name.Name
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !ts.Name.IsExported() ||
					!(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Quota")) {
					continue
				}
				for _, field := range st.Fields.List {
					for _, id := range field.Names {
						if id.IsExported() {
							out = append(out, sf.dir+" "+name+"."+id.Name)
						}
					}
				}
			}
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
