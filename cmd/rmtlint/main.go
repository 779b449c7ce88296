// Command rmtlint runs the repo's custom analyzers (internal/lint) as a
// `go vet -vettool`. It speaks the vet unitchecker protocol by hand —
// version/flags probes, the per-package *.cfg JSON handed over by cmd/go,
// type checking against the export data of already-built dependencies, and
// the facts output file — so the suite runs with full type information on
// every package without any dependency outside the standard library:
//
//	go build -o rmtlint ./cmd/rmtlint
//	go vet -vettool=$(pwd)/rmtlint ./...
//
// Diagnostics are printed one per line as file:line:col: analyzer: message
// and make vet exit nonzero, which is how CI gates on them.
//
// The tool also has a program-corpus mode that lints RMT assembly instead of
// Go:
//
//	rmtlint -programs <dir|file.rmt>...
//
// Each .rmt source (directories are globbed for *.rmt) is parsed, admitted
// into a scratch kernel with stub resources, and cross-checked by the corpus
// analyzer (verifier.AnalyzeCorpus): proof-mask, cost-certificate and
// interval-fact integrity, unproven div/mod sites and helper-contract
// disposition. Findings print one per line; error-level findings and
// admission rejections exit nonzero.
package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"rmtk/internal/core"
	"rmtk/internal/isa"
	"rmtk/internal/lint"
	"rmtk/internal/report"
	"rmtk/internal/verifier"
)

// vetConfig mirrors the JSON configuration cmd/go writes for each package
// when invoking a vet tool (see cmd/go/internal/work and
// golang.org/x/tools/go/analysis/unitchecker for the de-facto schema).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func main() {
	args := os.Args[1:]
	// Probes from cmd/go: tool identity for the build cache (the output
	// must be exactly "<basename> version <v>" for cmd/go's buildID
	// parser), then the tool's flag schema.
	if len(args) == 1 && strings.HasPrefix(args[0], "-V") {
		fmt.Printf("%s version v0.1.0\n", filepath.Base(os.Args[0]))
		return
	}
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Println("[]")
		return
	}
	if len(args) >= 1 && args[0] == "-programs" {
		os.Exit(runPrograms(args[1:]))
	}
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		fmt.Fprintln(os.Stderr, "usage: go vet -vettool=/path/to/rmtlint ./...\n       rmtlint -programs <dir|file.rmt>...")
		os.Exit(2)
	}
	diags, err := runUnit(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "rmtlint: %v\n", err)
		os.Exit(1)
	}
	if len(diags) > 0 {
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
		}
		os.Exit(2)
	}
}

// runPrograms is the program-corpus mode: parse every named .rmt source
// (directories are globbed), admit them into a scratch kernel, and run the
// corpus analyzer over the admitted population. Returns the process exit
// code: nonzero on parse failures, admission rejections or error-level
// findings.
func runPrograms(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: rmtlint -programs <dir|file.rmt>...")
		return 2
	}
	var paths []string
	for _, a := range args {
		st, err := os.Stat(a)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmtlint: %v\n", err)
			return 1
		}
		if st.IsDir() {
			m, err := filepath.Glob(filepath.Join(a, "*.rmt"))
			if err != nil {
				fmt.Fprintf(os.Stderr, "rmtlint: %v\n", err)
				return 1
			}
			sort.Strings(m)
			paths = append(paths, m...)
		} else {
			paths = append(paths, a)
		}
	}
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "rmtlint: no .rmt programs found")
		return 1
	}
	var progs []*isa.Program
	exit := 0
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmtlint: %v\n", err)
			return 1
		}
		name := strings.TrimSuffix(filepath.Base(p), ".rmt")
		prog, err := isa.ParseSource(name, string(data))
		if err != nil {
			fmt.Printf("ERROR %s [parse]: %v\n", name, err)
			exit = 1
			continue
		}
		progs = append(progs, prog)
	}
	k, rejections, err := report.FilesBuilder(progs)(core.ModeInterp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rmtlint: %v\n", err)
		return 1
	}
	for _, r := range rejections {
		fmt.Printf("ERROR %s [admission]: %s\n", r.Name, r.Err)
		exit = 1
	}
	findings := verifier.AnalyzeCorpus(k.VerifierCorpus())
	for _, f := range findings {
		fmt.Println(f)
		if f.Level == verifier.LevelError {
			exit = 1
		}
	}
	if exit == 0 && len(findings) == 0 && len(rejections) == 0 {
		fmt.Printf("%d programs analyzed: clean\n", len(progs))
	}
	return exit
}

// runUnit analyzes one package unit per its vet config and returns rendered
// diagnostics.
func runUnit(cfgPath string) ([]string, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return nil, err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", cfgPath, err)
	}
	// cmd/go expects a facts file for every unit, even when the analysis
	// produced none (our analyzers keep no cross-package facts).
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			return nil, err
		}
	}
	if cfg.VetxOnly {
		// Dependency pass: cmd/go only wants the (empty) facts.
		return nil, nil
	}

	fset := token.NewFileSet()
	files := make([]*ast.File, 0, len(cfg.GoFiles))
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil, nil
			}
			return nil, err
		}
		files = append(files, f)
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	// Resolve imports through the export data cmd/go already built: the
	// import path as written maps through ImportMap to a canonical package
	// path, whose compiled export file is listed in PackageFile.
	lookup := func(path string) (io.ReadCloser, error) {
		if canon, ok := cfg.ImportMap[path]; ok {
			path = canon
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	tcfg := types.Config{
		Importer: importer.ForCompiler(fset, compiler, lookup),
		Sizes:    types.SizesFor(compiler, runtime.GOARCH),
	}
	if strings.HasPrefix(cfg.GoVersion, "go1") {
		tcfg.GoVersion = cfg.GoVersion
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	pkg, err := tcfg.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, nil
		}
		return nil, err
	}

	found, err := lint.RunAnalyzers(fset, files, pkg, info)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(found))
	for i, d := range found {
		out[i] = fmt.Sprintf("%s: %s", fset.Position(d.Pos), d.Message)
	}
	return out, nil
}
