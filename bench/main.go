// Command bench is rmtk's benchmark: four named workloads through the real
// stack, end-to-end metrics from an untraced run, per-layer metrics from a
// separate traced run, and correctness checked against oracles it computes
// itself. README.md in this directory has the commands and the tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload ("+fmt.Sprint(workloadNames)+") and end with the driver's JSON line; empty runs all of them")
		seed      = flag.Int64("seed", 1, "seed of every generated input")
		seconds   = flag.Float64("seconds", 20, "how long one run measures")
		trace     = flag.Int("trace", 0, "1 = traced run: per-layer metrics and bench/out/trace-<workload>.json")
		selfcheck = flag.Bool("selfcheck", false, "A/A check: two interleaved sets of runs of this build, compared against each metric's bound")
		repeats   = flag.Int("repeats", 1, "runs per workload (per set with -selfcheck), interleaved round-robin across workloads")
		out       = flag.String("out", "", "with -workload: also write the full result as JSON to this file")
		traceDir  = flag.String("trace-dir", filepath.Join("bench", "out"), "where a traced run writes its span file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}

	if *workload != "" {
		cfg := runConfig{
			workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
			traceDir: *traceDir,
		}
		res, err := runWorkload(cfg)
		if err != nil {
			fatalf("%v", err)
		}
		res.print(os.Stdout)
		if *out != "" {
			if err := writeJSON(*out, res); err != nil {
				fatalf("%v", err)
			}
		}
		line, err := json.Marshal(res.driverLine())
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	m := multi{seed: *seed, seconds: *seconds, traced: *trace == 1, repeats: *repeats, traceDir: *traceDir}
	if *selfcheck {
		if *repeats < 3 {
			m.repeats = 3
		}
		m.traced = false
		if !m.selfcheck(os.Stdout) {
			os.Exit(1)
		}
		return
	}
	if !m.all(os.Stdout) {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// multi runs several single-workload runs, each in a child process of this
// same binary: VmHWM is a per-process high-water mark and heap state carries
// over inside one process, so a fresh process per run is what makes runs
// comparable — and it is exactly how the driver runs the benchmark.
type multi struct {
	seed     int64
	seconds  float64
	traced   bool
	repeats  int
	traceDir string
}

// child runs one workload in a child process and reads back its full result.
func (m multi) child(workload string, seed int64) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp("", "rmtk-bench-result-*.json")
	if err != nil {
		return nil, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	trace := "0"
	if m.traced {
		trace = "1"
	}
	cmd := exec.Command(exe,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(m.seconds, 'g', -1, 64),
		"-trace", trace, "-trace-dir", m.traceDir, "-out", tmp.Name())
	cmd.Stderr = os.Stderr // the child's report is not needed: -out carries the result
	runErr := cmd.Run()    // waits for the child to exit
	data, err := os.ReadFile(tmp.Name())
	if err != nil || len(data) == 0 {
		return nil, fmt.Errorf("bench: %s (seed %d) produced no result: %v", workload, seed, runErr)
	}
	var res result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// set runs repeats rounds; each round runs every workload once, so one
// workload's repeats are spread over the whole set rather than back to back
// (this machine's speed drifts over tens of seconds).
func (m multi) set(label string, firstSeed int64, w io.Writer) (map[string][]*result, bool) {
	runs := make(map[string][]*result)
	ok := true
	for r := 0; r < m.repeats; r++ {
		for _, wl := range workloadNames {
			seed := firstSeed + int64(r)
			fmt.Fprintf(w, "-- %s: %s seed=%d\n", label, wl, seed)
			res, err := m.child(wl, seed)
			if err != nil {
				fmt.Fprintf(w, "   FAILED: %v\n", err)
				ok = false
				continue
			}
			if !res.Correct {
				ok = false
			}
			runs[wl] = append(runs[wl], res)
		}
	}
	return runs, ok
}

// medianOf is the median of one end-to-end metric over a set's runs.
func medianOf(runs []*result, name string) (float64, bool) {
	var xs []float64
	for _, r := range runs {
		if v, ok := r.E2E[name]; ok {
			xs = append(xs, v.Value)
		}
	}
	if len(xs) == 0 {
		return 0, false
	}
	return median(xs), true
}

func header(w io.Writer) {
	fmt.Fprintf(w, "rmtk bench: %s %s/%s, nproc=%d, GOMAXPROCS=%d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// all runs every workload (repeats times, interleaved) and prints each run's
// last report plus, with repeats > 1, the medians across runs.
func (m multi) all(w io.Writer) bool {
	header(w)
	runs, ok := m.set("run", m.seed, w)
	for _, wl := range workloadNames {
		rs := runs[wl]
		if len(rs) == 0 {
			continue
		}
		rs[len(rs)-1].print(w)
		if len(rs) > 1 {
			fmt.Fprintf(w, "   -- medians over %d runs\n", len(rs))
			for _, s := range e2eSpecs {
				if v, ok := medianOf(rs, s.name); ok {
					fmt.Fprintf(w, "   %-38s %16.4f %s\n", s.name, v, s.unit)
				}
			}
		}
	}
	return ok
}

// selfcheck is the A/A criterion: two sets of runs of the same build, the
// sets themselves interleaved round by round, must agree within each
// end-to-end metric's bound on every workload.
func (m multi) selfcheck(w io.Writer) bool {
	header(w)
	fmt.Fprintf(w, "selfcheck: 2 sets x %d runs x %d workloads, %.0fs each\n", m.repeats, len(workloadNames), m.seconds)
	a := make(map[string][]*result)
	b := make(map[string][]*result)
	ok := true
	one := m
	one.repeats = 1
	for r := 0; r < m.repeats; r++ {
		// Same seeds on both sides: the comparison is build against build,
		// not input against input.
		seed := m.seed + int64(r)
		for _, side := range []struct {
			label string
			into  map[string][]*result
		}{{"A", a}, {"B", b}} {
			runs, sok := one.set(fmt.Sprintf("set %s, round %d/%d", side.label, r+1, m.repeats), seed, w)
			ok = ok && sok
			for wl, rs := range runs {
				side.into[wl] = append(side.into[wl], rs...)
			}
		}
	}
	fmt.Fprintf(w, "\n%-18s %-24s %14s %14s %9s %9s  %s\n", "workload", "metric", "median A", "median B", "diff", "bound", "")
	for _, wl := range workloadNames {
		for _, s := range e2eSpecs {
			if !s.applies(wl) {
				continue
			}
			va, oka := medianOf(a[wl], s.name)
			vb, okb := medianOf(b[wl], s.name)
			if !oka || !okb {
				fmt.Fprintf(w, "%-18s %-24s %14s %14s %9s %9s  FAIL (missing)\n", wl, s.name, "-", "-", "-", "-")
				ok = false
				continue
			}
			// A/A: neither side is the baseline, so the worse direction of
			// either ordering counts.
			worse, allowed := s.worseBy(va, vb)
			if w2, a2 := s.worseBy(vb, va); w2 > worse {
				worse, allowed = w2, a2
			}
			verdict := "PASS"
			if worse > allowed {
				verdict = "FAIL"
				ok = false
			}
			rel := 0.0
			if va != 0 {
				rel = 100 * (vb - va) / va
			}
			fmt.Fprintf(w, "%-18s %-24s %14.4f %14.4f %+8.2f%% %9s  %s\n", wl, s.name, va, vb, rel, boundText(s), verdict)
		}
	}
	if ok {
		fmt.Fprintln(w, "selfcheck: PASS")
	} else {
		fmt.Fprintln(w, "selfcheck: FAIL")
	}
	return ok
}

func boundText(s e2eSpec) string {
	switch {
	case s.rel > 0 && s.abs > 0:
		return fmt.Sprintf("%g%%|%g", 100*s.rel, s.abs)
	case s.rel > 0:
		return fmt.Sprintf("%g%%", 100*s.rel)
	case s.abs > 0:
		return fmt.Sprintf("%g abs", s.abs)
	}
	return "no rise"
}
