package workload

import (
	"testing"

	"rmtk/internal/memsim"
	"rmtk/internal/schedsim"
)

// deltas extracts the page-delta sequence of a single-PID trace.
func deltas(trace []memsim.Access) []int64 {
	var out []int64
	for i := 1; i < len(trace); i++ {
		out = append(out, trace[i].Page-trace[i-1].Page)
	}
	return out
}

func TestVideoResizeDeterministic(t *testing.T) {
	cfg := VideoResizeConfig{TraceConfig: TraceConfig{Seed: 3, PID: 5}}
	a := VideoResize(cfg)
	b := VideoResize(cfg)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("access %d differs", i)
		}
	}
}

func TestVideoResizeCleanCycle(t *testing.T) {
	// Without noise or jitter the delta sequence is the exact 9-cycle
	// {1,1,1,1,1, J, 1,1, K} with constant jumps.
	cfg := VideoResizeConfig{
		TraceConfig: TraceConfig{Seed: 1, PID: 5, NoiseFrac: 0, WorkJitter: 0},
		RowJitter:   0,
		Frames:      4,
	}
	trace := VideoResize(cfg)
	ds := deltas(trace)
	if len(ds) < 18 {
		t.Fatalf("trace too short: %d deltas", len(ds))
	}
	// Cycle length 9; compare two consecutive cycles.
	for i := 0; i+9 < len(ds); i++ {
		if ds[i] != ds[i+9] {
			t.Fatalf("delta %d (%d) != delta %d (%d): cycle broken", i, ds[i], i+9, ds[i+9])
		}
	}
	// Five +1s, then a jump, two +1s, then a jump back.
	ones := 0
	for _, d := range ds[:9] {
		if d == 1 {
			ones++
		}
	}
	if ones != 7 {
		t.Fatalf("cycle has %d unit deltas, want 7: %v", ones, ds[:9])
	}
}

func TestVideoResizeSkipsAreNeverTouched(t *testing.T) {
	cfg := VideoResizeConfig{
		TraceConfig: TraceConfig{Seed: 1, PID: 5, NoiseFrac: 0, WorkJitter: 0},
		RowJitter:   0,
		Frames:      10,
	}
	trace := VideoResize(cfg)
	touched := map[int64]bool{}
	for _, a := range trace {
		touched[a.Page] = true
	}
	// Source rows use pages rows*10 .. rows*10+5; 6..9 are cropped tails.
	for r := int64(0); r < 10; r++ {
		for i := int64(6); i < 10; i++ {
			if touched[r*10+i] {
				t.Fatalf("skip page %d was accessed", r*10+i)
			}
		}
	}
}

func TestVideoResizeNoise(t *testing.T) {
	cfg := VideoResizeConfig{
		TraceConfig: TraceConfig{Seed: 1, PID: 5, NoiseFrac: 0.2, WorkJitter: 0},
		Frames:      20,
	}
	trace := VideoResize(cfg)
	noise := 0
	for _, a := range trace {
		if a.Page >= noiseBase {
			noise++
		}
	}
	frac := float64(noise) / float64(len(trace))
	if frac < 0.1 || frac > 0.25 {
		t.Fatalf("noise fraction %.3f, want ~0.17", frac)
	}
}

func TestMatrixConvCleanCycle(t *testing.T) {
	cfg := MatrixConvConfig{
		TraceConfig: TraceConfig{Seed: 1, PID: 5, NoiseFrac: 0, WorkJitter: 0},
		Windows:     20,
	}
	trace := MatrixConv(cfg)
	ds := deltas(trace)
	// Cycle: {8 x6, 1, 1, 1, jump}; length = taps + tails = 10.
	cyc := 10
	for i := 0; i+cyc < len(ds); i++ {
		if ds[i] != ds[i+cyc] {
			t.Fatalf("delta %d (%d) != delta %d (%d)", i, ds[i], i+cyc, ds[i+cyc])
		}
	}
	strides := 0
	for _, d := range ds[:cyc] {
		if d == 8 {
			strides++
		}
	}
	if strides != 6 {
		t.Fatalf("cycle has %d stride-8 deltas, want 6: %v", strides, ds[:cyc])
	}
	// The stride is a strict majority of the cycle, which is what lets
	// Leap's vote lock on.
	if 2*strides <= cyc {
		t.Fatalf("stride not a strict majority: %d of %d", strides, cyc)
	}
	// No sequential run longer than the tail reads.
	run := 0
	for _, d := range ds {
		if d == 1 {
			run++
			if run > 3 {
				t.Fatalf("sequential run longer than TailReads")
			}
		} else {
			run = 0
		}
	}
}

func TestMatrixConvSpanMisaligned(t *testing.T) {
	cfg := MatrixConvConfig{TraceConfig: TraceConfig{Seed: 1, PID: 5, NoiseFrac: 0}}
	if cfg.Span == 0 {
		// Default Span = Stride*Taps + TailReads + 2 = 61: not a multiple
		// of the stride, and the implied jump (61 - 51 = 10) is neither
		// the stride nor 1.
		span := int64(8*7 + 3 + 2)
		if span%8 == 0 {
			t.Fatal("default span aligned with stride")
		}
		jump := span - (8*(7-1) + 3)
		if jump == 8 || jump == 1 {
			t.Fatalf("jump delta %d aliases a run", jump)
		}
	}
}

func TestWorkAssigned(t *testing.T) {
	trace := VideoResize(VideoResizeConfig{
		TraceConfig: TraceConfig{Seed: 1, PID: 5, WorkNs: 1000, WorkJitter: 0.5},
		Frames:      2,
	})
	for _, a := range trace {
		if a.Work < 500 || a.Work > 1500 {
			t.Fatalf("work %d outside jitter band", a.Work)
		}
	}
}

func TestPatternShift(t *testing.T) {
	a := []memsim.Access{{PID: 1, Page: 1}}
	b := []memsim.Access{{PID: 1, Page: 2}}
	got := PatternShift(a, b)
	if len(got) != 2 || got[0].Page != 1 || got[1].Page != 2 {
		t.Fatalf("shift = %v", got)
	}
}

func TestSchedBenchmarks(t *testing.T) {
	wls := SchedBenchmarks(SchedConfig{Seed: 1})
	if len(wls) != 4 {
		t.Fatalf("%d benchmarks", len(wls))
	}
	names := []string{"blackscholes", "streamcluster", "fib", "matmul"}
	for i, wl := range wls {
		if wl.Name != names[i] {
			t.Fatalf("benchmark %d = %s, want %s", i, wl.Name, names[i])
		}
		if totalWork(wl) <= 0 {
			t.Fatalf("%s has no work", wl.Name)
		}
	}
	// Streamcluster is phased; blackscholes is one phase.
	if len(wls[0].Phases) != 1 || len(wls[1].Phases) != 16 {
		t.Fatalf("phase structure wrong: %d, %d", len(wls[0].Phases), len(wls[1].Phases))
	}
	// Fib is heavy-tailed: the largest task dwarfs the smallest.
	var minW, maxW int64 = 1 << 62, 0
	for _, s := range wls[2].Phases[0] {
		if s.Work < minW {
			minW = s.Work
		}
		if s.Work > maxW {
			maxW = s.Work
		}
	}
	if maxW < 10*minW {
		t.Fatalf("fib not heavy-tailed: min %d max %d", minW, maxW)
	}
	// Scale parameter scales work.
	scaled := SchedBenchmarks(SchedConfig{Seed: 1, Scale: 2})
	if totalWork(scaled[0]) < totalWork(wls[0])*3/2 {
		t.Fatal("scale did not scale work")
	}
}

// totalWork sums the work of all of w's tasks across phases.
func totalWork(w *schedsim.Workload) int64 {
	var sum int64
	for _, ph := range w.Phases {
		for _, t := range ph {
			sum += t.Work
		}
	}
	return sum
}

func TestSchedDeterministic(t *testing.T) {
	a := Blackscholes(SchedConfig{Seed: 4})
	b := Blackscholes(SchedConfig{Seed: 4})
	for i := range a.Phases[0] {
		if a.Phases[0][i] != b.Phases[0][i] {
			t.Fatal("same seed, different workload")
		}
	}
}
