package experiments

import (
	"testing"

	"rmtk/internal/core"
	"rmtk/internal/ctrl"
	"rmtk/internal/memsim"
)

// TestTable1Shape regenerates Table 1 and checks every qualitative claim the
// paper makes: accuracy/coverage ordering Ours > Leap > Linux and completion
// time Ours < Leap < Linux, on both workloads, plus rough magnitude bands.
func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 1 run")
	}
	rows, err := Table1(1, core.ModeJIT)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, wl := range []string{"video", "conv"} {
		var linux, leap, ours Table1Row
		for _, r := range rows {
			if r.Workload != wl {
				continue
			}
			switch r.Policy {
			case "linux-readahead":
				linux = r
			case "leap":
				leap = r
			case "rmt-ml":
				ours = r
			}
		}
		if !(ours.Accuracy > leap.Accuracy && leap.Accuracy > linux.Accuracy) {
			t.Errorf("%s accuracy ordering: %v / %v / %v", wl, linux.Accuracy, leap.Accuracy, ours.Accuracy)
		}
		if !(ours.Coverage > leap.Coverage && leap.Coverage > linux.Coverage) {
			t.Errorf("%s coverage ordering: %v / %v / %v", wl, linux.Coverage, leap.Coverage, ours.Coverage)
		}
		if !(ours.JCTSeconds < leap.JCTSeconds && leap.JCTSeconds < linux.JCTSeconds) {
			t.Errorf("%s JCT ordering: %v / %v / %v", wl, linux.JCTSeconds, leap.JCTSeconds, ours.JCTSeconds)
		}
		// Magnitude bands (generous, to survive reseeding).
		if ours.Accuracy < 80 {
			t.Errorf("%s ML accuracy %v below the paper's regime", wl, ours.Accuracy)
		}
		if wl == "conv" && linux.Accuracy > 20 {
			t.Errorf("conv Linux accuracy %v should starve", linux.Accuracy)
		}
		// The ML speedup factor lands near the paper's (1.38x video, 2.28x
		// conv): require at least 1.2x.
		if linux.JCTSeconds/ours.JCTSeconds < 1.2 {
			t.Errorf("%s speedup %v too small", wl, linux.JCTSeconds/ours.JCTSeconds)
		}
	}
}

// TestTable1LearnedGolden pins the seed-1 rmt-ml rows of Table 1 to the exact
// outcome of the reference tree builder (recorded before dt.Train was
// rewritten): every retrain must grow the same tree it always did, or the
// prefetch stream — and with it these counts — drifts. Accuracy, coverage
// and JCT are functions of the counts.
func TestTable1LearnedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("two full rmt-ml runs")
	}
	golden := []struct {
		name   string
		trace  []memsim.Access
		cfg    memsim.Config
		want   memsim.Result
		trains int
	}{
		{"video", VideoTrace(1), VideoMemConfig(), memsim.Result{
			Policy: "rmt-ml", Accesses: 90554, Hits: 85231, DemandMisses: 5323,
			PrefetchIssued: 93259, PrefetchUsed: 85230, PrefetchLate: 3,
			LateStallNs: 316140, ClockNs: 17954114892,
		}, 176}, // acc 91.39%, cov 94.12%, jct 17.95s
		{"conv", ConvTrace(1), ConvMemConfig(), memsim.Result{
			Policy: "rmt-ml", Accesses: 37769, Hits: 35515, DemandMisses: 2254,
			PrefetchIssued: 38867, PrefetchUsed: 35515, PrefetchLate: 1,
			LateStallNs: 256092, ClockNs: 14095474792,
		}, 73}, // acc 91.38%, cov 94.03%, jct 14.10s
	}
	for _, g := range golden {
		p, _, err := NewRMTPrefetcher(core.ModeJIT)
		if err != nil {
			t.Fatal(err)
		}
		got := memsim.Run(g.cfg, p, g.trace)
		if got != g.want {
			type fields memsim.Result // print every field, not Result's summary
			t.Errorf("%s:\n got %+v\nwant %+v", g.name, fields(got), fields(g.want))
		}
		if trains := p.Trains(g.trace[0].PID); trains != g.trains {
			t.Errorf("%s: %d model pushes, want %d", g.name, trains, g.trains)
		}
	}
}

// TestTable2Shape regenerates Table 2 and checks the paper's claims: ≥99%
// full-featured mimicry (we allow ≥97), ≥94% lean mimicry, and learned JCTs
// within a few percent of the CFS heuristic.
func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 2 run")
	}
	rows, err := Table2(1, core.ModeJIT)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.FullAcc < 97 {
			t.Errorf("%s full accuracy %.2f < 97", r.Workload, r.FullAcc)
		}
		if r.LeanAcc < 94 {
			t.Errorf("%s lean accuracy %.2f < 94", r.Workload, r.LeanAcc)
		}
		if len(r.LeanFeatures) != LeanFeatures {
			t.Errorf("%s lean features %v", r.Workload, r.LeanFeatures)
		}
		for _, jct := range []float64{r.FullSec, r.LeanSec} {
			rel := (jct - r.CFSSec) / r.CFSSec
			if rel > 0.08 || rel < -0.08 {
				t.Errorf("%s learned JCT %.2fs vs CFS %.2fs (%.1f%%)", r.Workload, jct, r.CFSSec, 100*rel)
			}
		}
	}
}

// TestIOTailShape regenerates Extension F and checks EXPERIMENTS.md's claims:
// the learned router has the best mean latency of any router, it retrains
// online, and unlike hedging it issues no duplicate IOs. The seed-1
// rmt-learned row is pinned exactly: a change to the retrain loop that grows
// a different tree or pushes at a different event moves it.
func TestIOTailShape(t *testing.T) {
	rows, err := IOTail(1)
	if err != nil {
		t.Fatal(err)
	}
	by := make(map[string]IOTailRow, len(rows))
	for _, r := range rows {
		by[r.Policy] = r
	}
	ours := by["rmt-learned"]
	for _, base := range []string{"primary", "hedge", "shortest-queue"} {
		if b, ok := by[base]; !ok || ours.MeanUs >= b.MeanUs {
			t.Errorf("rmt-learned mean %.1fµs not below %s's %.1fµs", ours.MeanUs, base, b.MeanUs)
		}
	}
	if ours.Trains == 0 {
		t.Error("rmt-learned never retrained")
	}
	if ours.ExtraIOs != 0 {
		t.Errorf("rmt-learned issued %d duplicate IOs, want 0", ours.ExtraIOs)
	}
	const golden = "rmt-learned     mean=  143.8µs p50=   84.3µs p99=  1086.7µs slow= 1628 extraIO=    0 trains=117"
	if got := ours.String(); got != golden {
		t.Errorf("rmt-learned row:\n got %s\nwant %s", got, golden)
	}
}

// TestNetIsolationShape regenerates Extension G and checks EXPERIMENTS.md's
// claims: first-packet classification misroutes no more elephant packets
// than the reactive threshold, and keeps mice p99 below the shared queue's.
// The seed-1 rmt-learned row is pinned exactly.
func TestNetIsolationShape(t *testing.T) {
	rows, err := NetIsolation(1)
	if err != nil {
		t.Fatal(err)
	}
	by := make(map[string]NetRow, len(rows))
	for _, r := range rows {
		by[r.Policy] = r
	}
	ours, reactive, shared := by["rmt-learned"], by["reactive-32k"], by["shared-queue"]
	if ours.Policy == "" || reactive.Policy == "" || shared.Policy == "" {
		t.Fatalf("missing rows: %v", rows)
	}
	if ours.Misrouted > reactive.Misrouted {
		t.Errorf("rmt-learned misrouted %d elephant packets, reactive-32k %d", ours.Misrouted, reactive.Misrouted)
	}
	if ours.MiceP99Us >= shared.MiceP99Us {
		t.Errorf("rmt-learned mice p99 %.1fµs not below shared-queue's %.1fµs", ours.MiceP99Us, shared.MiceP99Us)
	}
	const golden = "rmt-learned    mice p50=   0.3µs p99=    0.7µs mean=   0.3µs misrouted=     0 reclass=   0 trains=37"
	if got := ours.String(); got != golden {
		t.Errorf("rmt-learned row:\n got %s\nwant %s", got, golden)
	}
}

// TestOnlineAdaptationShape: continuous retraining must dominate the frozen
// model after the pattern shift, and the control-plane monitor must notice
// the shift. The seed-1 result is pinned exactly.
func TestOnlineAdaptationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptation run")
	}
	res, err := OnlineAdaptation(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.OnlineAccuracy < res.FrozenAccuracy+20 {
		t.Errorf("online %.2f%% vs frozen %.2f%%: adaptation gain too small",
			res.OnlineAccuracy, res.FrozenAccuracy)
	}
	if res.MonitorDegrades == 0 {
		t.Error("accuracy monitor never fired across the workload shift")
	}
	if res.OnlineTrains == 0 {
		t.Error("no online retrains")
	}
	const golden = "online acc=86.63% cov=94.01% (trains=102, degrades=7) vs frozen acc=25.17% cov=91.28%"
	if got := res.String(); got != golden {
		t.Errorf("result:\n got %s\nwant %s", got, golden)
	}
}

// TestDPSweepShape: noise shrinks as epsilon grows; queries per budget
// shrink proportionally.
func TestDPSweepShape(t *testing.T) {
	pts, err := DPSweep(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 3 {
		t.Fatalf("%d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Epsilon <= pts[i-1].Epsilon {
			t.Fatal("sweep not increasing")
		}
		if pts[i].MeanAbsError >= pts[i-1].MeanAbsError {
			t.Errorf("noise did not shrink: eps %v -> %v err %v -> %v",
				pts[i-1].Epsilon, pts[i].Epsilon, pts[i-1].MeanAbsError, pts[i].MeanAbsError)
		}
		if pts[i].QueriesBefore >= pts[i-1].QueriesBefore {
			t.Error("budget longevity did not shrink with epsilon")
		}
	}
}

func TestDatasetCollection(t *testing.T) {
	ds := CollectSchedDataset(0)
	if ds.Workload != "blackscholes" {
		t.Fatalf("workload %s", ds.Workload)
	}
	if len(ds.Xtrain) == 0 || len(ds.Xtest) == 0 {
		t.Fatal("empty dataset")
	}
	if len(ds.Xtrain) != len(ds.Ytrain) || len(ds.Xtest) != len(ds.Ytest) {
		t.Fatal("misaligned labels")
	}
}

func TestOversample(t *testing.T) {
	X := [][]int64{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}, {9}, {10}}
	y := []int{1, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	ox, oy := Oversample(X, y)
	pos := 0
	for _, v := range oy {
		pos += v
	}
	if pos < 3 || pos*2 > len(oy) {
		t.Fatalf("oversampled to %d/%d positives", pos, len(oy))
	}
	if len(ox) != len(oy) {
		t.Fatal("misaligned oversample")
	}
	// Balanced input passes through.
	ox2, _ := Oversample(X[:4], []int{1, 1, 0, 0})
	if len(ox2) != 4 {
		t.Fatal("balanced set resampled")
	}
}

// TestChaosContainment runs the fault-containment experiment and checks the
// acceptance shape: the supervised datapath stays within 5% of the stock
// readahead baseline under the fault storm (it is usually faster — the
// learned policy runs clean outside the storm), the unsupervised datapath is
// measurably worse than both, and the full breaker lifecycle — trip,
// fallback, probe, recovery — shows up in the counters.
func TestChaosContainment(t *testing.T) {
	if testing.Short() {
		t.Skip("full chaos run")
	}
	r, err := Chaos(1, core.ModeJIT)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(r)
	if r.ContainedJCT > r.BaselineJCT*1.05 {
		t.Errorf("contained JCT %.2fs exceeds 105%% of baseline %.2fs — containment failed",
			r.ContainedJCT, r.BaselineJCT)
	}
	if r.UncontainedJCT <= r.BaselineJCT*1.05 {
		t.Errorf("uncontained JCT %.2fs not measurably worse than baseline %.2fs — storm too weak to test containment",
			r.UncontainedJCT, r.BaselineJCT)
	}
	if r.UncontainedJCT <= r.ContainedJCT {
		t.Errorf("uncontained %.2fs <= contained %.2fs", r.UncontainedJCT, r.ContainedJCT)
	}
	if r.Trips == 0 || r.Fallbacks == 0 || r.Probes == 0 || r.Recoveries == 0 {
		t.Errorf("breaker lifecycle incomplete: trips=%d fallbacks=%d probes=%d recoveries=%d",
			r.Trips, r.Fallbacks, r.Probes, r.Recoveries)
	}
	if r.InjectedTraps == 0 || r.InjectedHelperErrs == 0 {
		t.Errorf("fault storm did not inject: traps=%d helper-errs=%d", r.InjectedTraps, r.InjectedHelperErrs)
	}
	if r.InjectedSwapFaults == 0 || r.SwapFaultsRetried != r.InjectedSwapFaults {
		t.Errorf("model-swap faults not absorbed by retry: injected=%d retried=%d",
			r.InjectedSwapFaults, r.SwapFaultsRetried)
	}
}

// TestCanaryRollback runs the staged-rollout experiment and checks the
// acceptance shape: under a compromised training pipeline pushing a
// corrupted tree from mid-trace onward, the canaried datapath holds JCT
// within 5% of the clean run and never lets the corruption go live (the
// hostile rollout ends rejected or rolled back, counted in telemetry), the
// uncanaried datapath regresses JCT by more than 10%, and good background
// retrains still clear the shadow gates and keep accuracy high. The seed-1
// rollout counts and the printed result are pinned exactly.
func TestCanaryRollback(t *testing.T) {
	if testing.Short() {
		t.Skip("full canary run")
	}
	r, err := CanaryRollout(1, core.ModeJIT)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(r)
	if r.CanariedJCT > r.CleanJCT*1.05 {
		t.Errorf("canaried JCT %.2fs exceeds 105%% of clean %.2fs — the corruption leaked into the datapath",
			r.CanariedJCT, r.CleanJCT)
	}
	if r.UncanariedJCT <= r.CleanJCT*1.10 {
		t.Errorf("uncanaried JCT %.2fs not measurably worse than clean %.2fs — corruption too weak to test the canary",
			r.UncanariedJCT, r.CleanJCT)
	}
	if r.CorruptState != ctrl.CanaryRejected {
		t.Errorf("hostile rollout ended %v, want rejected", r.CorruptState)
	}
	if r.Rejections == 0 {
		t.Error("no rejections counted — the gate never fired")
	}
	if r.Promotions == 0 {
		t.Error("no promotions counted — good retrains never cleared the shadow gate")
	}
	if r.ShadowFires == 0 {
		t.Error("no shadow fires counted — candidates never ran in shadow")
	}
	if r.CanariedAccuracy <= r.UncanariedAccuracy {
		t.Errorf("canaried accuracy %.2f%% not better than uncanaried %.2f%%",
			r.CanariedAccuracy, r.UncanariedAccuracy)
	}
	if r.CleanAccuracy < 50 {
		t.Errorf("clean canaried accuracy %.2f%% — promoted models are not improving the policy", r.CleanAccuracy)
	}
	if r.Promotions != 88 || r.Rejections != 707 || r.ShadowFires != 50910 {
		t.Errorf("promotions=%d rejections=%d shadow-fires=%d, want 88 707 50910",
			r.Promotions, r.Rejections, r.ShadowFires)
	}
	const golden = "canary: clean=17.97s canaried=17.96s (100.0% of clean) uncanaried=29.25s (162.8% of clean)\n" +
		"        accuracy: clean=91.34% canaried=89.27% uncanaried=7.36%\n" +
		"        promotions=88 rejections=707 shadow-fires=50910 corrupt-rollout=rejected"
	if got := r.String(); got != golden {
		t.Errorf("result:\n got %s\nwant %s", got, golden)
	}
}

// TestFleetConvergence: the fleet chaos experiment's contract — the
// rollout promotes despite a leader kill mid-way, every node converges on
// the same epoch with byte-identical logs (zero divergence), and the
// chaos run's JCT stays within 5% of the uninterrupted one.
func TestFleetConvergence(t *testing.T) {
	ticks := 2000
	if testing.Short() {
		ticks = 1200
	}
	res, err := Fleet(1, ticks)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)
	if res.CleanState != "promoted" || res.ChaosState != "promoted" {
		t.Fatalf("rollout states clean=%s chaos=%s, want both promoted", res.CleanState, res.ChaosState)
	}
	if res.Failovers == 0 {
		t.Fatal("chaos run saw no failover — the kill missed the rollout window")
	}
	if res.Diverged {
		t.Fatal("replica logs or epochs diverged after chaos")
	}
	if ratio := res.ChaosJCT / res.CleanJCT; ratio > 1.05 {
		t.Fatalf("chaos JCT %.3fs is %.2fx clean %.3fs, budget 1.05x",
			res.ChaosJCT, ratio, res.CleanJCT)
	}
}
