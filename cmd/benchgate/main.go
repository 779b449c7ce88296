// Command benchgate is the CI perf-regression gate. It parses `go test
// -bench` output (stdin or a file), takes the median ns/op per benchmark
// across repeated -count runs, and compares the geometric mean of the
// current/baseline ratios against a committed baseline:
//
//	go test -bench=BenchmarkHotPath -benchmem -count=6 -run='^$' . | \
//	    benchgate -baseline BENCH_BASELINE.json
//
// Outputs of several `go test -bench` runs may be concatenated: CI appends
// ./internal/ml/dt's BenchmarkTrain to the root package's benchmarks.
//
// Exit status is 1 when the geomean ratio exceeds the threshold (default
// 1.10: a >10% regression), or when a benchmark disappeared from the run.
// Benchmarks present in the run but absent from the baseline are reported
// and otherwise ignored — run with -update to fold them in.
//
//	benchgate -baseline BENCH_BASELINE.json -update < bench.out
//
// rewrites the baseline from the current run (the baseline-acceptance step:
// done deliberately, on main, after a human has looked at the numbers).
//
// Medians across counted runs absorb scheduler noise; the geomean across
// benchmarks keeps one noisy sub-benchmark from failing the gate alone while
// still catching a broad slowdown. Stdlib only.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_BASELINE.json", "baseline file to compare against (and rewrite with -update)")
		threshold    = flag.Float64("threshold", 1.10, "maximum allowed geomean(current/baseline) ns/op ratio")
		update       = flag.Bool("update", false, "rewrite the baseline from this run instead of gating")
	)
	flag.Parse()

	var in io.Reader = os.Stdin
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	} else if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "usage: benchgate [-baseline file] [-threshold r] [-update] [bench-output]")
		os.Exit(2)
	}

	current, err := ParseBench(in)
	if err != nil {
		fatal(err)
	}
	if len(current) == 0 {
		fatal(fmt.Errorf("no benchmark results in input"))
	}

	if *update {
		if err := WriteBaseline(*baselinePath, current); err != nil {
			fatal(err)
		}
		fmt.Printf("benchgate: baseline %s updated with %d benchmarks\n", *baselinePath, len(current))
		return
	}

	baseline, err := ReadBaseline(*baselinePath)
	if err != nil {
		fatal(err)
	}
	rep := Compare(baseline, current, *threshold)
	fmt.Print(rep.String())
	if ratio, n := AOTSpeedup(current); n > 0 {
		fmt.Printf("benchgate: AOT speedup over JIT: geomean %.2fx across %d benchmark pairs\n", ratio, n)
	}
	if ns, ok := MissTax(current); ok {
		fmt.Printf("benchgate: verdict-cache miss tax = coldflows - uncached (aot, g1): %.1f ns/fire\n", ns)
	}
	if ns, ok := HitSaving(current); ok {
		fmt.Printf("benchgate: verdict-cache hit saving = uncached - cached (aot, g1): %.1f ns/fire\n", ns)
	}
	if ns, ok := SupervisorTax(current); ok {
		fmt.Printf("benchgate: supervisor tax = supervised/uncached - uncached (aot, g1): %.1f ns/fire\n", ns)
	}
	if ns, ok := BystanderTax(current); ok {
		fmt.Printf("benchgate: bystander tax = bystander - supervised/cached (aot, g1): %.1f ns/fire\n", ns)
	}
	if ms, share, ok := RetrainCost(current); ok {
		fmt.Printf("benchgate: retrain = BenchmarkTrain/window4088x8: %.2f ms/fit, %.3f of continuous4088x8 (every row distinct)\n", ms, share)
	}
	if !rep.Pass() {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(2)
}
