package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Workload names. They are final: later issues cite them.
const (
	wlFireHot  = "fire_hot"
	wlFireCold = "fire_cold"
	wlLearned  = "learned_prefetch"
	wlChurn    = "ctrl_churn"
)

var workloadNames = []string{wlFireHot, wlFireCold, wlLearned, wlChurn}

// e2eSpec is one end-to-end metric: what a user of the datapath sees. rel and
// abs are the regression bound — a change fails when the metric worsens by
// more than max(rel·|baseline|, abs). on lists the workloads that report it
// (nil = all); a workload never prints a metric that does not apply to it.
type e2eSpec struct {
	name, unit, better string
	rel, abs           float64
	on                 []string
	// timing marks wall-clock and CPU-time metrics: they are reported as the
	// fast decile across segments rather than the median.
	timing bool
}

var e2eSpecs = []e2eSpec{
	{timing: true, name: "setup_s", unit: "s", better: "lower", rel: 0.15},
	{timing: true, name: "ops_per_s", unit: "ops/s", better: "higher", rel: 0.10},
	{timing: true, name: "cpu_ns_per_op", unit: "ns", better: "lower", rel: 0.10},
	{timing: true, name: "op_ns_p50", unit: "ns", better: "lower", rel: 0.10},
	{name: "allocs_per_op", unit: "count", better: "lower", rel: 0.02, abs: 0.05},
	{name: "rss_peak_mb", unit: "MB", better: "lower", rel: 0.15},
	{name: "failed_op_share", unit: "ratio", better: "lower"},
	{timing: true, name: "ctrl_commit_us_p50", unit: "us", better: "lower", rel: 0.10, on: []string{wlChurn}},
	{timing: true, name: "recover_ms", unit: "ms", better: "lower", rel: 0.10, on: []string{wlChurn}},
	{name: "jct_virtual_s", unit: "s", better: "lower", rel: 0.01, on: []string{wlLearned}},
	{name: "prefetch_accuracy_pct", unit: "%", better: "higher", abs: 0.5, on: []string{wlLearned}},
	{name: "prefetch_coverage_pct", unit: "%", better: "higher", abs: 0.5, on: []string{wlLearned}},
}

// driverE2E are the end-to-end metrics BENCHMARK.json declares: the driver's
// contract wants every declared metric from every workload and never a zero,
// so only the ones all four workloads report with a non-zero value qualify.
// The rest are still printed, and gated by -selfcheck, under their own names;
// the driver sees them among the per-layer metrics of a traced run.
var driverE2E = []string{"setup_s", "ops_per_s", "cpu_ns_per_op", "op_ns_p50", "rss_peak_mb"}

// applies reports whether workload w reports the metric.
func (s e2eSpec) applies(w string) bool {
	if s.on == nil {
		return true
	}
	for _, x := range s.on {
		if x == w {
			return true
		}
	}
	return false
}

// worseBy is how much worse b reads than a (positive = b worse), and the
// slack the bound allows on a.
func (s e2eSpec) worseBy(a, b float64) (worse, allowed float64) {
	worse = b - a
	if s.better == "higher" {
		worse = a - b
	}
	return worse, math.Max(s.rel*math.Abs(a), s.abs)
}

// layerSpec is one per-layer metric of the traced run.
type layerSpec struct {
	name, unit, better string
}

// layerSpecs is every per-layer metric, in print order. Names are layer
// (module) first. "better" is the direction an optimisation of that layer
// would move it; for plain counts it says which way is cheaper.
var layerSpecs = []layerSpec{
	// Fire-path cost ledger: arms are fresh kernels built through the public
	// API with one layer added; delta = arm − core.ledger.aot_ns.
	{"core.ledger.no_table_ns", "ns", "lower"},
	{"core.ledger.param_ns", "ns", "lower"},
	{"core.ledger.interp_ns", "ns", "lower"},
	{"core.ledger.jit_ns", "ns", "lower"},
	{"core.ledger.aot_ns", "ns", "lower"},
	{"core.delta.cache_hit_ns", "ns", "lower"},
	{"core.delta.cache_miss_ns", "ns", "lower"},
	{"core.delta.supervisor_ns", "ns", "lower"},
	{"core.delta.sentinel_ns", "ns", "lower"},
	{"core.delta.tenant_admit_ns", "ns", "lower"},
	{"core.ledger.full_ns", "ns", "lower"},
	{"core.ledger.residual_pct", "%", "lower"},
	// Workload loop, from per-batch spans.
	{"core.fire_ns_p50.aot_hook", "ns", "lower"},
	{"core.fire_ns_p50.jit_hook", "ns", "lower"},
	{"core.fire_batch_ns_p99", "ns", "lower"},
	{"core.fire_batch_ns_p999", "ns", "lower"},
	// Exact counts read after the run from the kernel's public surface.
	{"core.cache_hit_ratio", "ratio", "higher"},
	{"core.cache_evictions", "count", "lower"},
	{"core.cache_invalidations", "count", "lower"},
	{"core.tier_fires.aot", "count", "higher"},
	{"core.tier_fires.jit", "count", "lower"},
	{"core.tier_fires.interp", "count", "lower"},
	{"core.tier_fires.baseline", "count", "lower"},
	{"core.steps_per_fire", "count", "lower"},
	{"core.sentinel_checked_share", "ratio", "lower"},
	{"core.fallbacks", "count", "lower"},
	// Isolated calls into exported functions.
	{"core.supervisor_allow_ns", "ns", "lower"},
	{"core.supervisor_record_ns", "ns", "lower"},
	{"table.lookup_exact_ns", "ns", "lower"},
	{"table.flowcache_get_hit_ns", "ns", "lower"},
	{"table.flowcache_miss_put_ns", "ns", "lower"},
	{"table.ctx_histpush_ns", "ns", "lower"},
	{"table.ctx_hist_ns", "ns", "lower"},
	{"vm.interp_run_ns", "ns", "lower"},
	{"vm.jit_run_ns", "ns", "lower"},
	{"aot.run_ns", "ns", "lower"},
	{"vm.jit_allocs_per_run", "count", "lower"},
	{"isa.assemble_us", "us", "lower"},
	{"verifier.verify_us", "us", "lower"},
	{"vm.compile_us", "us", "lower"},
	{"core.install_program_us", "us", "lower"},
	{"telemetry.sharded_inc_ns", "ns", "lower"},
	{"telemetry.hist_observe_ns", "ns", "lower"},
	{"qos.admit_ns", "ns", "lower"},
	// Control plane and log.
	{"ctrl.update_action_us", "us", "lower"},
	{"ctrl.push_model_us", "us", "lower"},
	{"ctrl.txn_commit_us", "us", "lower"},
	{"ctrl.load_program_us", "us", "lower"},
	{"ctrl.checkpoint_ms", "ms", "lower"},
	{"ctrl.commit_us_p99", "us", "lower"},
	{"ctrl.generations", "count", "lower"},
	{"ctrl.post_commit_refill_misses", "count", "lower"},
	{"wal.append_nosync_us", "us", "lower"},
	{"wal.append_sync_us", "us", "lower"},
	{"wal.scan_mb_per_s", "MB/s", "higher"},
	{"wal.records", "count", "lower"},
	{"wal.bytes", "count", "lower"},
	{"ctrl.recover_replay_us_per_record", "us", "lower"},
	{"ctrl.recover_checkpoint_ms", "ms", "lower"},
	// Learned datapath.
	{"rmtprefetch.on_access_ns_p50", "ns", "lower"},
	{"rmtprefetch.on_access_us_p999", "us", "lower"},
	{"rmtprefetch.slowest_1pct_time_share", "ratio", "lower"},
	{"rmtprefetch.trains", "count", "lower"},
	{"memsim.self_ns_per_access", "ns", "lower"},
	{"ml.dt_train_ms", "ms", "lower"},
	{"ml.dt_predict_ns", "ns", "lower"},
	{"ml.model_predicts", "count", "lower"},
	{"ml.predict_time_share", "ratio", "lower"},
	// Validity of the run itself.
	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.segments", "count", "higher"},
	{"bench.segment_iqr_pct", "%", "lower"},
}

// driverLayerExtras are the end-to-end metrics that cannot be declared as such
// in BENCHMARK.json (workload-specific, or zero by design) and are therefore
// handed to the driver with the per-layer metrics of the traced run.
func driverLayerExtras() []layerSpec {
	declared := make(map[string]bool)
	for _, n := range driverE2E {
		declared[n] = true
	}
	var out []layerSpec
	for _, s := range e2eSpecs {
		if !declared[s.name] {
			out = append(out, layerSpec{s.name, s.unit, s.better})
		}
	}
	return out
}

// sample is one reported metric value with the spread behind it.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Q1/Median/Q3/N describe the per-segment distribution the value was
	// taken from; N is 0 for counts and single measurements.
	Q1     float64 `json:"q1,omitempty"`
	Median float64 `json:"median,omitempty"`
	Q3     float64 `json:"q3,omitempty"`
	N      int     `json:"n,omitempty"`
}

// result is everything one run of one workload produced.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	InputHash string            `json:"input_hash"`
	E2E       map[string]sample `json:"end_to_end"`
	Layer     map[string]sample `json:"per_layer,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
	TraceFile string            `json:"trace_file,omitempty"`
}

func (r *result) setE2E(name string, v float64) {
	r.E2E[name] = sample{Value: v, Unit: e2eUnit(name)}
}

// setE2ESegs reports a per-segment metric: the fast decile for a timing (see
// fastDecile for why not the median), the median for anything else, with the
// median and quartiles across segments alongside.
func (r *result) setE2ESegs(name string, segs []float64) {
	spec := e2eSpecOf(name)
	q1, m, q3 := quartiles(segs)
	v := m
	if spec.timing {
		v = fastDecile(segs, spec.better == "higher")
	}
	r.E2E[name] = sample{Value: v, Unit: spec.unit, Q1: q1, Median: m, Q3: q3, N: len(segs)}
}

func (r *result) setLayer(name string, v float64) {
	if r.Layer == nil {
		r.Layer = make(map[string]sample)
	}
	r.Layer[name] = sample{Value: v, Unit: layerUnit(name)}
}

func e2eSpecOf(name string) e2eSpec {
	for _, s := range e2eSpecs {
		if s.name == name {
			return s
		}
	}
	panic("bench: undeclared end-to-end metric " + name)
}

func e2eUnit(name string) string { return e2eSpecOf(name).unit }

func layerUnit(name string) string {
	for _, s := range layerSpecs {
		if s.name == name {
			return s.unit
		}
	}
	panic("bench: undeclared per-layer metric " + name)
}

// print writes the human-readable report: every applicable metric by name
// with its unit; metrics that do not apply to the workload are left out.
func (r *result) print(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed=%d  %s  inputs=%s\n", r.Workload, r.Seed, mode, r.InputHash)
	fmt.Fprintf(w, "   correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	for _, s := range e2eSpecs {
		if v, ok := r.E2E[s.name]; ok {
			printSample(w, s.name, v)
		}
	}
	if r.Traced {
		fmt.Fprintln(w, "   -- per layer")
		for _, s := range layerSpecs {
			if v, ok := r.Layer[s.name]; ok {
				printSample(w, s.name, v)
			}
		}
		if r.TraceFile != "" {
			fmt.Fprintf(w, "   trace written to %s\n", r.TraceFile)
		}
	}
	notes := append([]string(nil), r.Notes...)
	sort.Strings(notes)
	for _, n := range notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
}

func printSample(w io.Writer, name string, v sample) {
	if v.N > 0 {
		fmt.Fprintf(w, "   %-38s %16.4f %-6s (samples: q1 %.4f, median %.4f, q3 %.4f, n %d)\n", name, v.Value, v.Unit, v.Q1, v.Median, v.Q3, v.N)
		return
	}
	fmt.Fprintf(w, "   %-38s %16.4f %s\n", name, v.Value, v.Unit)
}

// driverLine is the last line of standard output: exactly the metrics
// BENCHMARK.json declares for this mode. A per-layer metric that does not
// apply to the workload reads 0 there — the contract wants every name from
// every workload — while the report above leaves it out.
func (r *result) driverLine() map[string]any {
	metrics := make(map[string]map[string]any)
	if !r.Traced {
		for _, n := range driverE2E {
			v := r.E2E[n]
			metrics[n] = map[string]any{"value": v.Value, "unit": e2eUnit(n)}
		}
	} else {
		for _, s := range layerSpecs {
			metrics[s.name] = map[string]any{"value": r.Layer[s.name].Value, "unit": s.unit}
		}
		for _, s := range driverLayerExtras() {
			metrics[s.name] = map[string]any{"value": r.E2E[s.name].Value, "unit": s.unit}
		}
	}
	return map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	}
}
