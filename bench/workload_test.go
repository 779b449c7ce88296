package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rmtk/internal/core"
	"rmtk/internal/experiments"
)

// tinyConfig runs a workload at a few percent of the benchmark's op counts:
// every code path, well under a second.
func tinyConfig(t *testing.T, workload string, seed int64, traced bool) runConfig {
	t.Helper()
	dir := t.TempDir()
	return runConfig{
		workload: workload, seed: seed, traced: traced,
		seconds: 0.05, maxSegments: 4, scale: 0.02,
		traceDir: filepath.Join(dir, "out"), tmpDir: dir,
	}
}

func TestOracleMatchesHandComputedFixture(t *testing.T) {
	// The fixture's matrix, restated by hand on purpose: column sums are
	// (3, 4, 3, 4) and ΣB = 10, so over x = (key, arg2, arg3, key) the program
	// returns 7·key + 4·arg2 + 3·arg3 + 10.
	m := &core.Matrix{
		In: 4, Out: 4,
		W: []int64{
			2, 0, 1, 0,
			0, 3, 0, 1,
			1, 0, 2, 0,
			0, 1, 0, 3,
		},
		B: []int64{1, 2, 3, 4},
	}
	o, err := newOracle(m)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.verdict(5, 5, 3); got != 74 {
		t.Errorf("oracle(5,5,3) = %d, want 74", got)
	}
	if got := o.verdict(0, 0, 0); got != 10 {
		t.Errorf("oracle(0,0,0) = %d, want 10", got)
	}

	// The installed fixture agrees with the restatement, and the real stack
	// agrees with the oracle — on the AOT hook and, shifted by the seed
	// constant, on the dynamically installed JIT hook.
	k, add, err := newFullStackKernel(9)
	if err != nil {
		t.Fatal(err)
	}
	ko, err := kernelOracle(k)
	if err != nil {
		t.Fatal(err)
	}
	if ko != o {
		t.Fatalf("oracle from the installed matrix = %+v, hand-computed = %+v", ko, o)
	}
	if add == 0 {
		t.Fatal("seed constant of the dynamic variant is zero: it would hash like the fixture")
	}
	for _, f := range genFlows(9)[:64] {
		if got := k.Fire(experiments.HotPathHook, f.key, f.arg2, f.arg3).Verdict; got != o.verdict(f.key, f.arg2, f.arg3) {
			t.Fatalf("fixture verdict for %+v = %d, oracle %d", f, got, o.verdict(f.key, f.arg2, f.arg3))
		}
		if got := k.Fire(dynamicHook, f.key, f.arg2, f.arg3).Verdict; got != o.verdict(f.key, f.arg2, f.arg3)+add {
			t.Fatalf("dynamic verdict for %+v = %d, oracle %d", f, got, o.verdict(f.key, f.arg2, f.arg3)+add)
		}
	}
}

func TestWrongVerdictRaisesFailedOpShare(t *testing.T) {
	cfg := tinyConfig(t, wlFireHot, 4, false)
	res := &result{E2E: make(map[string]sample)}
	r, err := newFireRunner(cfg, res, false)
	if err != nil {
		t.Fatal(err)
	}
	r.warmup()
	clean, err := r.segment(nil)
	if err != nil {
		t.Fatal(err)
	}
	if clean.failed != 0 {
		t.Fatalf("clean segment failed %d of %d fires", clean.failed, clean.ops)
	}
	// One expected verdict per batch is now off by one: exactly one fire per
	// batch must be counted as failed.
	r.corrupt = true
	bad, err := r.segment(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := bad.ops / fireBatch; bad.failed != want {
		t.Fatalf("corrupted segment failed %d fires, want %d (one per batch)", bad.failed, want)
	}
	summarize(res, []segStats{clean, bad}, r.setups())
	if share := float64(res.Failed) / float64(res.Attempted); share <= 0 {
		t.Errorf("failed_op_share = %g after wrong verdicts", share)
	}
}

// TestSmokeEveryWorkload runs every workload untraced and traced at a tiny op
// count and checks the report: every named metric present with the right
// unit, nothing that does not apply, names inside the contract's alphabet,
// no failed operation, and the driver's last line complete in both modes.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, wl := range workloadNames {
		for _, traced := range []bool{false, true} {
			wl, traced := wl, traced
			name := wl + "/untraced"
			if traced {
				name = wl + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := tinyConfig(t, wl, 11, traced)
				res, err := runWorkload(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d notes=%v", res.Correct, res.Attempted, res.Failed, res.Notes)
				}
				for _, s := range e2eSpecs {
					v, ok := res.E2E[s.name]
					if ok != s.applies(wl) {
						t.Errorf("end-to-end %s present=%v, applies=%v", s.name, ok, s.applies(wl))
					}
					if ok && v.Unit != s.unit {
						t.Errorf("end-to-end %s unit %q, want %q", s.name, v.Unit, s.unit)
					}
					if !nameRE.MatchString(s.name) {
						t.Errorf("metric name %q outside the contract's alphabet", s.name)
					}
				}
				if res.E2E["failed_op_share"].Value != 0 {
					t.Errorf("failed_op_share = %g", res.E2E["failed_op_share"].Value)
				}
				checkDriverLine(t, res)
				if !traced {
					if len(res.Layer) != 0 {
						t.Errorf("untraced run reported %d per-layer metrics", len(res.Layer))
					}
					return
				}
				for _, s := range layerSpecs {
					v, ok := res.Layer[s.name]
					if want := layerApplies(s.name, wl); ok != want {
						t.Errorf("per-layer %s present=%v, want %v", s.name, ok, want)
					}
					if ok && v.Unit != s.unit {
						t.Errorf("per-layer %s unit %q, want %q", s.name, v.Unit, s.unit)
					}
					if !nameRE.MatchString(s.name) {
						t.Errorf("metric name %q outside the contract's alphabet", s.name)
					}
				}
				if _, err := os.Stat(filepath.Join(cfg.traceDir, "trace-"+wl+".json")); err != nil {
					t.Errorf("traced run left no span file: %v", err)
				}
				var buf bytes.Buffer
				res.print(&buf)
				if buf.Len() == 0 {
					t.Error("empty report")
				}
			})
		}
	}
}

// layerApplies says which per-layer metrics a workload's traced run reports.
// Ledger arms and isolated calls do not depend on the workload; loop-derived
// metrics exist only where the loop exercises the layer. Tail percentiles
// are left out here: whether they are supported depends on the sample count,
// and the smoke test's tiny runs never reach it.
func layerApplies(name, wl string) bool {
	fire := wl == wlFireHot || wl == wlFireCold || wl == wlChurn
	switch name {
	case "core.fire_batch_ns_p99", "core.fire_batch_ns_p999", "ctrl.commit_us_p99", "rmtprefetch.on_access_us_p999":
		return false
	case "core.fire_ns_p50.aot_hook":
		return fire
	case "core.fire_ns_p50.jit_hook":
		return wl == wlFireCold
	case "core.sentinel_checked_share":
		return fire
	case "ctrl.update_action_us", "ctrl.push_model_us", "ctrl.txn_commit_us", "ctrl.load_program_us",
		"ctrl.checkpoint_ms", "ctrl.generations", "ctrl.post_commit_refill_misses",
		"wal.records", "wal.bytes", "ctrl.recover_replay_us_per_record", "ctrl.recover_checkpoint_ms":
		return wl == wlChurn
	case "rmtprefetch.on_access_ns_p50", "rmtprefetch.slowest_1pct_time_share", "rmtprefetch.trains",
		"memsim.self_ns_per_access", "ml.model_predicts", "ml.predict_time_share":
		return wl == wlLearned
	}
	return true
}

// checkDriverLine checks the last line against BENCHMARK.json's lists.
func checkDriverLine(t *testing.T, res *result) {
	t.Helper()
	raw, err := json.Marshal(res.driverLine())
	if err != nil {
		t.Fatal(err)
	}
	var line struct {
		Correct   *bool  `json:"correct"`
		Attempted *int64 `json:"attempted"`
		Failed    *int64 `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("driver line: %v", err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
		t.Fatalf("driver line lacks a key: %s", raw)
	}
	want := make(map[string]string)
	if !res.Traced {
		for _, n := range driverE2E {
			want[n] = e2eUnit(n)
		}
	} else {
		for _, s := range append(append([]layerSpec(nil), layerSpecs...), driverLayerExtras()...) {
			want[s.name] = s.unit
		}
	}
	if len(line.Metrics) != len(want) {
		t.Errorf("driver line has %d metrics, want %d", len(line.Metrics), len(want))
	}
	for n, unit := range want {
		m, ok := line.Metrics[n]
		if !ok || m.Value == nil || m.Unit != unit {
			t.Errorf("driver line metric %s = %+v (present=%v), want unit %q", n, m, ok, unit)
		}
		if ok && m.Value != nil && !res.Traced && *m.Value == 0 {
			t.Errorf("end-to-end metric %s is 0 on %s", n, res.Workload)
		}
	}
}

// TestDeterminism: the same seed gives the same inputs, the same
// paper-facing quality and the same exact counts; another seed gives other
// inputs and still no failed operation.
func TestDeterminism(t *testing.T) {
	exact := map[string][]string{
		wlFireCold: {"core.tier_fires.aot", "core.tier_fires.jit", "core.tier_fires.interp", "core.tier_fires.baseline", "core.steps_per_fire"},
		wlLearned:  {"core.tier_fires.aot", "core.tier_fires.jit", "core.steps_per_fire", "rmtprefetch.trains"},
		wlChurn:    {"core.tier_fires.aot", "core.tier_fires.jit", "core.steps_per_fire", "wal.records", "ctrl.generations"},
	}
	for _, wl := range []string{wlFireCold, wlLearned, wlChurn} {
		wl := wl
		t.Run(wl, func(t *testing.T) {
			run := func(seed int64) *result {
				cfg := tinyConfig(t, wl, seed, true)
				// A fixed segment count, not a time budget: the counts must
				// not depend on how fast this run happened to be.
				cfg.seconds = 0
				res, err := runWorkload(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b, other := run(21), run(21), run(22)
			if a.InputHash != b.InputHash {
				t.Errorf("same seed, input hash %s vs %s", a.InputHash, b.InputHash)
			}
			if a.InputHash == other.InputHash {
				t.Errorf("seeds 21 and 22 generated the same inputs (%s)", a.InputHash)
			}
			for _, r := range []*result{a, b, other} {
				if r.E2E["failed_op_share"].Value != 0 || !r.Correct {
					t.Errorf("seed %d: failed_op_share=%g correct=%v notes=%v", r.Seed, r.E2E["failed_op_share"].Value, r.Correct, r.Notes)
				}
			}
			for _, n := range exact[wl] {
				if !reflect.DeepEqual(a.Layer[n].Value, b.Layer[n].Value) {
					t.Errorf("%s: %v vs %v on the same seed", n, a.Layer[n].Value, b.Layer[n].Value)
				}
			}
			if wl == wlLearned {
				for _, n := range []string{"jct_virtual_s", "prefetch_accuracy_pct", "prefetch_coverage_pct"} {
					if a.E2E[n].Value != b.E2E[n].Value {
						t.Errorf("%s: %v vs %v on the same seed", n, a.E2E[n].Value, b.E2E[n].Value)
					}
					if a.E2E[n].Value == 0 {
						t.Errorf("%s is 0", n)
					}
				}
			}
		})
	}
}
