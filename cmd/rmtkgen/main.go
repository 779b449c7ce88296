// Command rmtkgen is the build-time AOT compiler of the RMT toolchain: it
// assembles the standard datapath corpus (the demo datapaths plus the
// hot-path benchmark program), lowers every admitted program from the
// admission artifacts it carries (internal/aot/lower) and emits one Go
// source file registering a native function per program in the internal/aot
// registry.
//
// The output is committed (internal/aot/gen_datapaths.go) and guarded by the
// codegen-drift CI job: rerunning rmtkgen must reproduce the checked-in file
// byte for byte. Emission is a pure function of the corpus — entries are
// deduplicated and ordered by content hash, never by map iteration or
// install order — so the gate only fires on real semantic drift.
//
// Usage:
//
//	rmtkgen [-o internal/aot/gen_datapaths.go]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"rmtk/internal/core"
	"rmtk/internal/experiments"
	"rmtk/internal/report"
	"rmtk/internal/verifier"
)

func main() {
	out := flag.String("o", "internal/aot/gen_datapaths.go", "output file for the generated registry")
	flag.Parse()

	entries, err := corpus()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rmtkgen: corpus: %v\n", err)
		os.Exit(1)
	}
	src, stats, err := Generate(entries)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rmtkgen: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, src, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "rmtkgen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("rmtkgen: %s: %d programs compiled (%d corpus entries, %d deduplicated, %d skipped)\n",
		*out, stats.Compiled, stats.Entries, stats.Deduped, stats.Skipped)
}

// corpus assembles the committed generation corpus: every program the demo
// datapath builder admits (prefetch, IO routing, flow classification) plus
// the hot-path benchmark program, each paired with the verifier config it
// was admitted under.
func corpus() ([]verifier.CorpusEntry, error) {
	var entries []verifier.CorpusEntry
	k, _, err := report.DatapathBuilder(core.ModeJIT)
	if err != nil {
		return nil, fmt.Errorf("datapath builder: %w", err)
	}
	entries = append(entries, k.VerifierCorpus()...)
	hk, err := experiments.NewHotPathKernel(core.ModeJIT, false)
	if err != nil {
		return nil, fmt.Errorf("hot-path kernel: %w", err)
	}
	entries = append(entries, hk.VerifierCorpus()...)
	if len(entries) == 0 {
		return nil, errors.New("empty corpus")
	}
	return entries, nil
}
