// Package lint is a small, dependency-free static-analysis framework plus
// the repo's custom analyzers. It mirrors the shape of go/analysis —
// Analyzer, Pass, Reportf — but is built purely on the standard library's
// go/ast and go/types so it can run in hermetic build environments.
// cmd/rmtlint adapts it to the `go vet -vettool` unitchecker protocol so CI
// runs the analyzers over every package with full type information.
//
// Analyzers:
//
//   - simclock: simulation packages (package name ending in "sim") model
//     virtual time; calling the wall clock (time.Now/Since/Until) inside
//     one silently couples simulated behavior to host timing.
//   - lockedcallback: invoking a caller-supplied callback (a func-typed
//     struct field) while holding that object's own mutex invites deadlock —
//     callbacks may re-enter the locked owner. The repo convention is to
//     copy the field under the lock and call the copy after unlocking.
//   - ctrlerrors: exported error sentinels (package-level `Err...` vars)
//     must be wrapped with %w, never stringified with %v/%s, so callers
//     can branch with errors.Is.
//   - atomicsnapshot: the hot path's copy-on-write discipline — a snapshot
//     published through an atomic.Pointer Store is immutable from that
//     point on, and generation bumps must follow publication, never
//     precede it (a reader that loads generation g must see a snapshot at
//     least as new as g's).
//   - walrecord: a switch over the WAL record kind enumeration must carry
//     an arm for every declared kind — encode, decode, replay and
//     checkpoint-restore paths silently drop records otherwise. Deliberate
//     subsets (e.g. the transaction-legal kinds) are suppressed explicitly.
//   - boundedlabels: telemetry.SeriesVec label values must be provably
//     bounded — constants, or names validated by a qos quota gate — never
//     raw request-derived strings (an unbounded label set is a memory
//     leak with metrics attached).
//
// A diagnostic can be suppressed with an explicit directive comment:
//
//	//lint:ignore <analyzer>[,<analyzer>] <reason>
//
// placed on the flagged line or the line directly above it. The reason is
// mandatory — a suppression without a rationale is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one package's syntax and type information through an
// Analyzer's Run function.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Analyzer is one named check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Analyzers is the repo's full analyzer suite, in the order they run.
var Analyzers = []*Analyzer{
	SimClockAnalyzer,
	LockedCallbackAnalyzer,
	CtrlErrorsAnalyzer,
	AtomicSnapshotAnalyzer,
	WALRecordAnalyzer,
	BoundedLabelsAnalyzer,
}

// ignoreDirective is the comment prefix of an explicit suppression.
const ignoreDirective = "//lint:ignore"

// ignoreKey addresses one suppressed (file, line, analyzer) combination.
type ignoreKey struct {
	file string
	line int
	name string
}

// collectIgnores gathers `//lint:ignore a[,b] reason` directives from the
// package's comments. Malformed directives (no analyzer list, or no reason)
// are returned as diagnostics so a typo cannot silently disable a check.
func collectIgnores(fset *token.FileSet, files []*ast.File) (map[ignoreKey]bool, []Diagnostic) {
	ignores := make(map[ignoreKey]bool)
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignoreDirective) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(c.Text, ignoreDirective))
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{Pos: c.Pos(),
						Message: "lint: malformed ignore directive: want //lint:ignore <analyzer>[,<analyzer>] <reason>"})
					continue
				}
				pos := fset.Position(c.Pos())
				for _, name := range strings.Split(fields[0], ",") {
					ignores[ignoreKey{pos.Filename, pos.Line, name}] = true
				}
			}
		}
	}
	return ignores, bad
}

// suppressed reports whether a diagnostic of analyzer name at pos is covered
// by a directive on the same line or the line directly above.
func suppressed(ignores map[ignoreKey]bool, fset *token.FileSet, pos token.Pos, name string) bool {
	p := fset.Position(pos)
	return ignores[ignoreKey{p.Filename, p.Line, name}] ||
		ignores[ignoreKey{p.Filename, p.Line - 1, name}]
}

// RunAnalyzers applies every analyzer in the suite to one type-checked
// package and returns the combined diagnostics in source order, minus any
// explicitly suppressed findings.
func RunAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	ignores, out := collectIgnores(fset, files)
	for _, a := range Analyzers {
		pass := &Pass{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		for _, d := range pass.diags {
			if suppressed(ignores, fset, d.Pos, a.Name) {
				continue
			}
			d.Message = a.Name + ": " + d.Message
			out = append(out, d)
		}
	}
	return out, nil
}

// isTestFile reports whether the file a position lands in is a _test.go
// file. Analyzers enforcing production-code disciplines skip those: tests
// legitimately poke at raw state to set up fixtures.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}
