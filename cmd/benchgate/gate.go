package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkHotPath/jit/cached/g1-4   9273154   114.3 ns/op   0 B/op ...
//
// The name is captured as the full whitespace-delimited token;
// normalizeBenchName strips the GOMAXPROCS suffix afterwards. A lazy
// capture with an optional suffix group here would bite the -N off the
// wrong place for subtest names that themselves contain hyphen-digit
// segments.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+) ns/op`)

// normalizeBenchName strips the trailing -N GOMAXPROCS suffix `go test`
// appends to every benchmark name — exactly one trailing -<digits> group
// and nothing else, so a subtest name containing hyphen-digit segments
// survives: BenchmarkHotPath/aot/uncached/g1-4 run on a 4-core machine
// arrives as .../g1-4-4 and normalizes back to .../g1-4.
func normalizeBenchName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

// ParseBench reads `go test -bench` output and returns median ns/op per
// benchmark name. With -count=N each benchmark contributes N lines; the
// median absorbs scheduler noise far better than the mean.
func ParseBench(r io.Reader) (map[string]float64, error) {
	samples := make(map[string][]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil || ns <= 0 {
			return nil, fmt.Errorf("bad ns/op on line %q", sc.Text())
		}
		name := normalizeBenchName(m[1])
		samples[name] = append(samples[name], ns)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(samples))
	for name, s := range samples {
		out[name] = median(s)
	}
	return out, nil
}

func median(s []float64) float64 {
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// baselineFile is the committed BENCH_BASELINE.json shape.
type baselineFile struct {
	// Note documents how to regenerate; carried verbatim on -update.
	Note string `json:"note"`
	// NsPerOp maps benchmark name -> median ns/op.
	NsPerOp map[string]float64 `json:"ns_per_op"`
}

const baselineNote = "median ns/op per benchmark; regenerate with: { go test -bench='BenchmarkHotPath|BenchmarkWALAppend|BenchmarkRecover|BenchmarkTenantFire|BenchmarkAdmission|BenchmarkTableInsert' -benchmem -count=6 -run='^$' . ; go test -bench=BenchmarkTrain -benchmem -count=6 -run='^$' ./internal/ml/dt ; } | go run ./cmd/benchgate -update"

// ReadBaseline loads a committed baseline file.
func ReadBaseline(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf baselineFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(bf.NsPerOp) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks in baseline", path)
	}
	return bf.NsPerOp, nil
}

// WriteBaseline writes the baseline file with stable key order.
func WriteBaseline(path string, ns map[string]float64) error {
	data, err := json.MarshalIndent(baselineFile{Note: baselineNote, NsPerOp: ns}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0644)
}

// Report is the outcome of one gate comparison.
type Report struct {
	Threshold float64
	Geomean   float64  // geomean of current/baseline over shared benchmarks
	Shared    []Row    // shared benchmarks, worst ratio first
	Missing   []string // in baseline, absent from run: fails the gate
	New       []string // in run, absent from baseline: reported, not gated
}

// Row is one shared benchmark's comparison.
type Row struct {
	Name              string
	Baseline, Current float64
	Ratio             float64
}

// Pass reports whether the gate clears: every baseline benchmark ran and
// the geomean ratio is within threshold.
func (r Report) Pass() bool {
	return len(r.Missing) == 0 && r.Geomean <= r.Threshold
}

func (r Report) String() string {
	var b strings.Builder
	for _, row := range r.Shared {
		fmt.Fprintf(&b, "%-50s %10.1f -> %10.1f ns/op  (%.3fx)\n",
			row.Name, row.Baseline, row.Current, row.Ratio)
	}
	for _, name := range r.New {
		fmt.Fprintf(&b, "%-50s not in baseline (run with -update to accept)\n", name)
	}
	for _, name := range r.Missing {
		fmt.Fprintf(&b, "%-50s MISSING from this run\n", name)
	}
	verdict := "PASS"
	if !r.Pass() {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "benchgate: geomean ratio %.3fx over %d benchmarks (threshold %.2fx): %s\n",
		r.Geomean, len(r.Shared), r.Threshold, verdict)
	return b.String()
}

// AOTSpeedup reports the geometric-mean speedup of the AOT engine over the
// JIT in one run: for every benchmark name containing "/jit/" whose "/aot/"
// counterpart also ran, the ratio jit_ns/aot_ns enters the geomean. n is
// the number of pairs; n == 0 means the run had no jit/aot pairs (ratio 1).
// CI prints this next to the gate verdict so the AOT win is visible on
// every bench run, not just when the gate trips.
func AOTSpeedup(current map[string]float64) (ratio float64, n int) {
	var logSum float64
	for name, jitNs := range current {
		aotName := strings.Replace(name, "/jit/", "/aot/", 1)
		if aotName == name {
			continue
		}
		aotNs, ok := current[aotName]
		if !ok || aotNs <= 0 || jitNs <= 0 {
			continue
		}
		logSum += math.Log(jitNs / aotNs)
		n++
	}
	if n == 0 {
		return 1, 0
	}
	return math.Exp(logSum / float64(n)), n
}

// MissTax reports what a verdict-cache miss adds to an uncached AOT fire in
// one run: coldflows (cache on, every flow new) minus uncached (cache off) at
// one goroutine. ok is false when the run lacks either arm. CI prints it next
// to the AOT speedup: the cached arm only ever hits and the uncached arm never
// probes, so without this line the cost of a miss is priced nowhere.
func MissTax(current map[string]float64) (ns float64, ok bool) {
	cold, okc := current["BenchmarkHotPath/aot/coldflows/g1"]
	unc, oku := current["BenchmarkHotPath/aot/uncached/g1"]
	return cold - unc, okc && oku
}

// HitSaving reports what a verdict-cache hit is worth in one run: uncached
// (cache off, the engine runs) minus cached (every fire replayed) at one
// goroutine, AOT — the tier whose engine run is cheapest, so the arm where the
// cache has least to skip. ok is false when the run lacks either arm. With the
// miss tax it gives the hit ratio a hook needs before caching pays:
// tax / (tax + saving).
func HitSaving(current map[string]float64) (ns float64, ok bool) {
	unc, oku := current["BenchmarkHotPath/aot/uncached/g1"]
	hit, okh := current["BenchmarkHotPath/aot/cached/g1"]
	return unc - hit, oku && okh
}

// SupervisorTax reports what an attached supervisor adds to an uncached AOT
// fire in one run: supervised/uncached minus uncached at one goroutine — one
// Allow and one RecordRun on a closed breaker. ok is false when the run lacks
// either arm. No other arm supervises, so without this line the breaker's
// cost on the healthy path is priced nowhere.
func SupervisorTax(current map[string]float64) (ns float64, ok bool) {
	sup, oks := current["BenchmarkHotPath/aot/supervised/uncached/g1"]
	unc, oku := current["BenchmarkHotPath/aot/uncached/g1"]
	return sup - unc, oks && oku
}

// BystanderTax reports what commits to a hook other than the one firing cost a
// cached, supervised AOT fire in one run: bystander (a foreign-hook commit
// every 2 048 fires) minus supervised/cached (none) at one goroutine. ok is
// false when the run lacks either arm. Near zero is the point: before verdicts
// were stamped with what they read, every such commit flushed the firing
// hook's cache and this line read about +150 ns.
func BystanderTax(current map[string]float64) (ns float64, ok bool) {
	by, okb := current["BenchmarkHotPath/aot/bystander/g1"]
	sup, oks := current["BenchmarkHotPath/aot/supervised/cached/g1"]
	return by - sup, okb && oks
}

// RetrainCost reports a one-shot fit in one run: BenchmarkTrain/window4088x8
// (dt.Train on the shape of rmtprefetch's window: 4 088 overlapping windows
// of a strided series, a few hundred distinct samples; rmtprefetch's own
// retrain fits its warm window, BenchmarkOnlineFit) in
// milliseconds, and as a share of continuous4088x8 (as many rows, every one
// distinct: what Train costs when collapsing identical samples finds nothing).
// ok is false when the run lacks either arm. The share is the line to watch:
// it reads about 0.02 while Train prices distinct samples and about 0.07 if it
// goes back to pricing every row.
func RetrainCost(current map[string]float64) (windowMs, share float64, ok bool) {
	win, okw := current["BenchmarkTrain/window4088x8"]
	cont, okc := current["BenchmarkTrain/continuous4088x8"]
	if !okw || !okc {
		return 0, 0, false
	}
	return win / 1e6, win / cont, true
}

// Compare gates current medians against the baseline.
func Compare(baseline, current map[string]float64, threshold float64) Report {
	rep := Report{Threshold: threshold, Geomean: 1}
	var logSum float64
	for name, base := range baseline {
		cur, ok := current[name]
		if !ok {
			rep.Missing = append(rep.Missing, name)
			continue
		}
		ratio := cur / base
		rep.Shared = append(rep.Shared, Row{Name: name, Baseline: base, Current: cur, Ratio: ratio})
		logSum += math.Log(ratio)
	}
	for name := range current {
		if _, ok := baseline[name]; !ok {
			rep.New = append(rep.New, name)
		}
	}
	if len(rep.Shared) > 0 {
		rep.Geomean = math.Exp(logSum / float64(len(rep.Shared)))
	}
	sort.Slice(rep.Shared, func(i, j int) bool { return rep.Shared[i].Ratio > rep.Shared[j].Ratio })
	sort.Strings(rep.Missing)
	sort.Strings(rep.New)
	return rep
}
