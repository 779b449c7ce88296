package main

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: rmtk
BenchmarkHotPath/jit/cached/g1-4         9273154	       110.0 ns/op	       0 B/op
BenchmarkHotPath/jit/cached/g1-4         9100000	       114.0 ns/op	       0 B/op
BenchmarkHotPath/jit/cached/g1-4         9050000	       190.0 ns/op	       0 B/op
BenchmarkHotPath/jit/uncached/g1-4       2800000	       350.0 ns/op	       0 B/op
BenchmarkHotPath/jit/uncached/g1-4       2850000	       348.0 ns/op	       0 B/op
PASS
ok  	rmtk	12.3s
`

func TestParseBenchMedians(t *testing.T) {
	got, err := ParseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	// Median of {110, 114, 190} is 114 — the one noisy run is absorbed.
	if ns := got["BenchmarkHotPath/jit/cached/g1"]; ns != 114 {
		t.Errorf("cached median = %v, want 114", ns)
	}
	// Even sample count: midpoint of {348, 350}.
	if ns := got["BenchmarkHotPath/jit/uncached/g1"]; ns != 349 {
		t.Errorf("uncached median = %v, want 349", ns)
	}
	if len(got) != 2 {
		t.Errorf("parsed %d benchmarks, want 2", len(got))
	}
}

func TestParseBenchStripsGomaxprocsSuffix(t *testing.T) {
	got, err := ParseBench(strings.NewReader(
		"BenchmarkX-16   100   50.0 ns/op\nBenchmarkX-1   100   52.0 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if ns := got["BenchmarkX"]; ns != 51 {
		t.Errorf("runs from different core counts not merged: %v", got)
	}
}

func TestNormalizeBenchName(t *testing.T) {
	cases := []struct{ in, want string }{
		// Plain GOMAXPROCS suffix.
		{"BenchmarkHotPath/jit/cached/g1-4", "BenchmarkHotPath/jit/cached/g1"},
		{"BenchmarkX-16", "BenchmarkX"},
		// A subtest name that itself ends in -<digits>: go test appends the
		// procs suffix after it, and only that one suffix must come off.
		{"BenchmarkHotPath/aot/uncached/g1-4-4", "BenchmarkHotPath/aot/uncached/g1-4"},
		{"BenchmarkFoo/n-100-1", "BenchmarkFoo/n-100"},
		// No suffix, trailing dash, or non-digit tail: unchanged.
		{"BenchmarkFoo", "BenchmarkFoo"},
		{"BenchmarkFoo-", "BenchmarkFoo-"},
		{"BenchmarkFoo/size-big", "BenchmarkFoo/size-big"},
	}
	for _, c := range cases {
		if got := normalizeBenchName(c.in); got != c.want {
			t.Errorf("normalizeBenchName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseBenchKeepsHyphenSubtestNames(t *testing.T) {
	// The aot/uncached/g1 subtest run on a 4-core machine: the token ends in
	// g1-4; only the procs suffix -4 may be stripped.
	got, err := ParseBench(strings.NewReader(
		"BenchmarkHotPath/aot/uncached/g1-4   7000000   160.0 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if ns := got["BenchmarkHotPath/aot/uncached/g1"]; ns != 160 {
		t.Errorf("hyphenated subtest mis-normalized: %v", got)
	}
}

func TestAOTSpeedupGeomean(t *testing.T) {
	current := map[string]float64{
		"BenchmarkHotPath/jit/uncached/g1": 400,
		"BenchmarkHotPath/aot/uncached/g1": 200, // 2x
		"BenchmarkHotPath/jit/uncached/g4": 400,
		"BenchmarkHotPath/aot/uncached/g4": 50,  // 8x
		"BenchmarkHotPath/jit/cached/g1":   100, // no aot twin: ignored
		"BenchmarkWALAppend":               9999,
	}
	ratio, n := AOTSpeedup(current)
	if n != 2 {
		t.Fatalf("paired %d benchmarks, want 2", n)
	}
	if math.Abs(ratio-4) > 1e-9 { // geomean(2, 8) = 4
		t.Errorf("speedup = %v, want 4", ratio)
	}
}

func TestAOTSpeedupNoPairs(t *testing.T) {
	ratio, n := AOTSpeedup(map[string]float64{"BenchmarkWALAppend": 10})
	if n != 0 || ratio != 1 {
		t.Errorf("got ratio=%v n=%d, want 1, 0", ratio, n)
	}
}

func TestMissTax(t *testing.T) {
	current := map[string]float64{
		"BenchmarkHotPath/aot/coldflows/g1": 260,
		"BenchmarkHotPath/aot/uncached/g1":  185,
		"BenchmarkHotPath/jit/coldflows/g1": 310, // the line is the AOT pair's
		"BenchmarkHotPath/jit/uncached/g1":  225,
	}
	if ns, ok := MissTax(current); !ok || ns != 75 {
		t.Fatalf("miss tax = %v, %v; want 75, true", ns, ok)
	}
	delete(current, "BenchmarkHotPath/aot/coldflows/g1")
	if _, ok := MissTax(current); ok {
		t.Fatal("miss tax reported without the coldflows arm")
	}
}

func TestHitSaving(t *testing.T) {
	current := map[string]float64{
		"BenchmarkHotPath/aot/uncached/g1": 145,
		"BenchmarkHotPath/aot/cached/g1":   66,
		"BenchmarkHotPath/aot/cached/g4":   110, // the line is g1's
		"BenchmarkHotPath/jit/cached/g1":   67,  // and the AOT pair's
	}
	if ns, ok := HitSaving(current); !ok || ns != 79 {
		t.Fatalf("hit saving = %v, %v; want 79, true", ns, ok)
	}
	delete(current, "BenchmarkHotPath/aot/cached/g1")
	if _, ok := HitSaving(current); ok {
		t.Fatal("hit saving reported without the cached arm")
	}
}

func TestSupervisorTax(t *testing.T) {
	current := map[string]float64{
		"BenchmarkHotPath/aot/supervised/uncached/g1": 172,
		"BenchmarkHotPath/aot/supervised/cached/g1":   120, // not part of the line
		"BenchmarkHotPath/aot/uncached/g1":            165,
	}
	if ns, ok := SupervisorTax(current); !ok || ns != 7 {
		t.Fatalf("supervisor tax = %v, %v; want 7, true", ns, ok)
	}
	delete(current, "BenchmarkHotPath/aot/supervised/uncached/g1")
	if _, ok := SupervisorTax(current); ok {
		t.Fatal("supervisor tax reported without the supervised arm")
	}
}

func TestBystanderTax(t *testing.T) {
	current := map[string]float64{
		"BenchmarkHotPath/aot/bystander/g1":           131,
		"BenchmarkHotPath/aot/supervised/cached/g1":   128,
		"BenchmarkHotPath/aot/supervised/uncached/g1": 172, // not part of the line
	}
	if ns, ok := BystanderTax(current); !ok || ns != 3 {
		t.Fatalf("bystander tax = %v, %v; want 3, true", ns, ok)
	}
	delete(current, "BenchmarkHotPath/aot/bystander/g1")
	if _, ok := BystanderTax(current); ok {
		t.Fatal("bystander tax reported without the bystander arm")
	}
}

func TestRetrainCost(t *testing.T) {
	// Two packages' outputs concatenated, as CI tees them.
	current, err := ParseBench(strings.NewReader(sampleOutput + `pkg: rmtk/internal/ml/dt
BenchmarkTrain/window4088x8-2         	    2365	    465000 ns/op	  108144 B/op	      35 allocs/op
BenchmarkTrain/window4088x8-2         	    2911	    435000 ns/op	  108144 B/op	      35 allocs/op
BenchmarkTrain/continuous4088x8-2     	      39	  22500000 ns/op	  912544 B/op	      39 allocs/op
PASS
`))
	if err != nil {
		t.Fatal(err)
	}
	ms, share, ok := RetrainCost(current)
	if !ok || math.Abs(ms-0.45) > 1e-9 || math.Abs(share-0.02) > 1e-9 {
		t.Fatalf("retrain cost = %v ms, %v of continuous, ok=%v; want 0.45, 0.02, true", ms, share, ok)
	}
	if current["BenchmarkHotPath/jit/cached/g1"] != 114 {
		t.Fatalf("the first package's benchmarks were lost: %v", current)
	}
	delete(current, "BenchmarkTrain/continuous4088x8")
	if _, _, ok := RetrainCost(current); ok {
		t.Fatal("retrain cost reported without the continuous arm")
	}
}

func TestCompareSeededRegressionFails(t *testing.T) {
	baseline := map[string]float64{"BenchmarkA": 100, "BenchmarkB": 200}
	// Seed a uniform 15% regression: >10% geomean, must fail the gate.
	rep := Compare(baseline, map[string]float64{"BenchmarkA": 115, "BenchmarkB": 230}, 1.10)
	if rep.Pass() {
		t.Fatalf("15%% regression passed the gate: %+v", rep)
	}
	if math.Abs(rep.Geomean-1.15) > 1e-9 {
		t.Errorf("geomean = %v, want 1.15", rep.Geomean)
	}
	if !strings.Contains(rep.String(), "FAIL") {
		t.Errorf("report does not say FAIL:\n%s", rep.String())
	}
}

func TestCompareWithinThresholdPasses(t *testing.T) {
	baseline := map[string]float64{"BenchmarkA": 100, "BenchmarkB": 200}
	// One bench 8% slower, one 3% faster: geomean ~1.022, within 10%.
	rep := Compare(baseline, map[string]float64{"BenchmarkA": 108, "BenchmarkB": 194}, 1.10)
	if !rep.Pass() {
		t.Fatalf("small drift failed the gate: %+v", rep)
	}
	if !strings.Contains(rep.String(), "PASS") {
		t.Errorf("report does not say PASS:\n%s", rep.String())
	}
}

func TestCompareSingleOutlierDoesNotFailGeomean(t *testing.T) {
	// One sub-benchmark 30% slower among five stable ones: geomean stays
	// under 10% — the gate targets broad slowdowns, not one noisy arm.
	baseline := map[string]float64{"A": 100, "B": 100, "C": 100, "D": 100, "E": 100}
	rep := Compare(baseline, map[string]float64{"A": 130, "B": 100, "C": 100, "D": 100, "E": 100}, 1.10)
	if !rep.Pass() {
		t.Fatalf("single outlier failed the gate: geomean %v", rep.Geomean)
	}
	if rep.Shared[0].Name != "A" {
		t.Errorf("worst ratio not sorted first: %+v", rep.Shared[0])
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	rep := Compare(map[string]float64{"A": 100, "B": 100}, map[string]float64{"A": 100}, 1.10)
	if rep.Pass() {
		t.Fatal("missing benchmark passed the gate")
	}
	if len(rep.Missing) != 1 || rep.Missing[0] != "B" {
		t.Errorf("missing = %v, want [B]", rep.Missing)
	}
}

func TestCompareNewBenchmarkReportedNotGated(t *testing.T) {
	rep := Compare(map[string]float64{"A": 100}, map[string]float64{"A": 100, "NEW": 999}, 1.10)
	if !rep.Pass() {
		t.Fatal("new benchmark failed the gate")
	}
	if len(rep.New) != 1 || rep.New[0] != "NEW" {
		t.Errorf("new = %v, want [NEW]", rep.New)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	want := map[string]float64{"BenchmarkHotPath/jit/cached/g1": 114.5, "BenchmarkHotPath/interp/uncached/g4": 501}
	if err := WriteBaseline(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("round trip lost benchmarks: %v", got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}
