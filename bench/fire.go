package main

import (
	"sort"
	"time"

	"rmtk/internal/core"
	"rmtk/internal/experiments"
)

const (
	// fireSegBatches is the fixed size of a fire segment: 2048 batches of 64
	// = 131 072 fires, 20–150 ms on this machine: long enough to hold the
	// periodic work of a cold fire (verdict-cache shard clears, a GC cycle),
	// short enough that a 20 s run takes a hundred or more of them.
	fireSegBatches = 2048

	spanSegment = "bench.segment"
	spanBatch   = "core.FireBatch/"
)

// hookPlan is one hook a fire workload drives and the constant its program
// adds on top of the fixture's linear form.
type hookPlan struct {
	hook string
	add  int64
}

// fireRunner drives fire_hot (cold=false) and fire_cold (cold=true).
type fireRunner struct {
	cfg    runConfig
	cold   bool
	k      *core.Kernel
	orc    oracle
	flows  []flow
	hooks  []hookPlan
	setupS []float64

	events []core.Event
	out    []core.FireResult
	want   []int64
	durs   []float64
	// next is the index of the next batch; in fire_cold it also derives the
	// never-repeating arg3 counter.
	next int64
	// corrupt, when set, perturbs the expected verdict of one fire per batch.
	// Only the seeded-failure test sets it.
	corrupt bool
}

func newFireRunner(cfg runConfig, res *result, cold bool) (*fireRunner, error) {
	r := &fireRunner{
		cfg: cfg, cold: cold,
		flows:  genFlows(cfg.seed),
		events: make([]core.Event, fireBatch),
		out:    make([]core.FireResult, fireBatch),
		want:   make([]int64, fireBatch),
		durs:   make([]float64, cfg.scaled(fireSegBatches)),
	}
	res.InputHash = flowHash(r.flows)
	var dyn int64
	if err := cfg.repeatSetup(func() error {
		t0 := time.Now()
		k, c, err := newFullStackKernel(cfg.seed)
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		r.k, dyn = k, c
		return err
	}); err != nil {
		return nil, err
	}
	orc, err := kernelOracle(r.k)
	if err != nil {
		return nil, err
	}
	r.orc = orc
	r.hooks = []hookPlan{{hook: experiments.HotPathHook}}
	if cold {
		// Batches alternate between the AOT-tier fixture and the JIT-tier
		// dynamically installed variant.
		r.hooks = append(r.hooks, hookPlan{hook: dynamicHook, add: dyn})
	}
	return r, nil
}

func (r *fireRunner) setups() []float64 { return r.setupS }

// fireOne builds batch b's events and expected verdicts, fires it, and
// returns how many of its fires failed.
func (r *fireRunner) fireOne(b int64) int64 {
	hp := r.hooks[b%int64(len(r.hooks))]
	fillBatch(r.events, r.flows, b, hp.hook, r.cold)
	for j := range r.events {
		ev := &r.events[j]
		r.want[j] = r.orc.verdict(ev.Key, ev.Arg2, ev.Arg3) + hp.add
	}
	if r.corrupt {
		r.want[0]++
	}
	r.k.FireBatch(r.events, r.out)
	var failed int64
	for j := range r.out {
		if failedFire(&r.out[j], r.want[j]) {
			failed++
		}
	}
	return failed
}

func (r *fireRunner) warmup() {
	// Four passes over the flow set on every hook: fills the JIT closures,
	// the state pools, the sentinel's lease set and (fire_hot) the verdict
	// cache.
	n := int64(4 * len(r.hooks) * len(r.flows) / fireBatch)
	for i := int64(0); i < n; i++ {
		r.fireOne(r.next)
		r.next++
	}
}

func (r *fireRunner) segment(tr *tracer) (segStats, error) {
	var st segStats
	var names []uint16
	var seg int32
	if tr != nil {
		for _, hp := range r.hooks {
			names = append(names, tr.name(spanBatch+hp.hook))
		}
		seg = tr.begin(tr.name(spanSegment), r.next)
	}
	n := len(r.durs)
	reg := beginRegion()
	prev := reg.t0
	for i := 0; i < n; i++ {
		b := r.next
		failed := r.fireOne(b)
		now := time.Now()
		r.durs[i] = float64(now.Sub(prev))
		if tr != nil {
			tr.add(names[b%int64(len(names))], b, prev, now)
		}
		prev = now
		st.failed += failed
		r.next++
	}
	reg.end(&st)
	if tr != nil {
		tr.end(seg)
	}
	st.ops = int64(n) * fireBatch
	sort.Float64s(r.durs)
	p50, _ := percentile(r.durs, 0.5)
	st.opNsP50 = p50 / fireBatch
	return st, nil
}

func (r *fireRunner) finish(res *result, tr *tracer) {
	if tr == nil {
		return
	}
	kernelCounters(res, r.k)
	batchLayerMetrics(res, tr, experiments.HotPathHook, dynamicHook)
}

// batchLayerMetrics derives the per-batch latency metrics from the batch
// spans: the median per-fire time on the AOT and JIT hooks, and the batch
// tail at the highest percentiles the sample count supports.
func batchLayerMetrics(res *result, tr *tracer, aotHook, jitHook string) {
	var all []float64
	for _, h := range []struct{ hook, metric string }{
		{aotHook, "core.fire_ns_p50.aot_hook"},
		{jitHook, "core.fire_ns_p50.jit_hook"},
	} {
		if h.hook == "" {
			continue
		}
		d := tr.durations(spanBatch + h.hook)
		if len(d) == 0 {
			continue
		}
		all = append(all, d...)
		p50, _ := percentile(sortedCopy(d), 0.5)
		res.setLayer(h.metric, p50/fireBatch)
	}
	sort.Float64s(all)
	if v, ok := percentile(all, 0.99); ok {
		res.setLayer("core.fire_batch_ns_p99", v)
	}
	if v, ok := percentile(all, 0.999); ok {
		res.setLayer("core.fire_batch_ns_p999", v)
	}
}
