package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"rmtk/internal/core"
	"rmtk/internal/experiments"
	"rmtk/internal/memsim"
	"rmtk/internal/rmtprefetch"
)

const (
	spanPass     = "bench.pass"
	spanSim      = "memsim.Run/"
	spanOnAccess = "rmtprefetch.OnAccess"
	spanRewrap   = "bench.rewrap_model"
)

// learnedCase is one Table-1 trace with its memory cost model.
type learnedCase struct {
	name  string
	trace []memsim.Access
	mem   memsim.Config
}

// quality is the paper-facing outcome of one pass: exact per seed.
type quality struct{ jct, accuracy, coverage float64 }

// learnedRunner drives learned_prefetch: paper Table 1 end to end. A segment
// is one full pass — video-resize then matrix-conv under the rmt-ml policy,
// each on a fresh kernel that learns from scratch inside the timed region.
type learnedRunner struct {
	cfg    runConfig
	cases  []learnedCase
	setupS []float64
	stepNs []float64

	first    *quality // the first pass's quality; every later pass must match
	mismatch bool
	lastK    *core.Kernel
	trains   int
	// Traced-pass aggregates from the model decorator.
	predicts  int64
	predictNs int64
	tracedNs  int64
}

func newLearnedRunner(cfg runConfig, res *result) (*learnedRunner, error) {
	r := &learnedRunner{cfg: cfg}
	video, conv := experiments.VideoTrace(cfg.seed), experiments.ConvTrace(cfg.seed)
	if cfg.scale > 0 && cfg.scale < 1 {
		video, conv = video[:cfg.scaled(len(video))], conv[:cfg.scaled(len(conv))]
	}
	r.cases = []learnedCase{
		{"video", video, experiments.VideoMemConfig()},
		{"conv", conv, experiments.ConvMemConfig()},
	}
	h := fnv.New64a()
	for _, c := range r.cases {
		for _, a := range c.trace {
			fmt.Fprintf(h, "%d,%d,%d;", a.PID, a.Page, a.Work)
		}
	}
	res.InputHash = fmt.Sprintf("%016x", h.Sum64())
	// Set-up is the construction of the system under test (kernel, control
	// plane, tables, collect program), not the generation of its inputs.
	if err := cfg.repeatSetup(func() error { _, _, err := r.setup(); return err }); err != nil {
		return nil, err
	}
	return r, nil
}

// setup builds one fresh prefetcher stack per trace and records the time.
func (r *learnedRunner) setup() ([]*rmtprefetch.Prefetcher, []*core.Kernel, error) {
	t0 := time.Now()
	var ps []*rmtprefetch.Prefetcher
	var ks []*core.Kernel
	for range r.cases {
		p, k, err := experiments.NewRMTPrefetcher(core.ModeAOT)
		if err != nil {
			return nil, nil, err
		}
		ps, ks = append(ps, p), append(ks, k)
	}
	r.setupS = append(r.setupS, time.Since(t0).Seconds())
	return ps, ks, nil
}

func (r *learnedRunner) setups() []float64 { return r.setupS }

// warmup does nothing: cold start is what users of this datapath pay, so the
// first access of every pass is already inside the timed region.
func (r *learnedRunner) warmup() {}

func (r *learnedRunner) segment(tr *tracer) (segStats, error) {
	var st segStats
	ps, ks, err := r.setup()
	if err != nil {
		return st, err
	}
	r.stepNs = r.stepNs[:0]
	var q quality
	var pass int32
	var models []*timedModels
	if tr != nil {
		pass = tr.begin(tr.name(spanPass), int64(len(r.setupS)))
	}
	reg := beginRegion()
	for i, c := range r.cases {
		var pol memsim.Prefetcher = ps[i]
		var sim int32
		if tr != nil {
			tm := &timedModels{k: ks[i], p: ps[i]}
			models = append(models, tm)
			pol = &tracedPrefetcher{Prefetcher: ps[i], tr: tr, name: tr.name(spanOnAccess), models: tm}
			sim = tr.begin(tr.name(spanSim+c.name), int64(i))
		}
		s := memsim.New(c.mem, pol)
		prev := time.Now()
		for _, a := range c.trace {
			s.Step(a)
			now := time.Now()
			r.stepNs = append(r.stepNs, float64(now.Sub(prev)))
			prev = now
		}
		if tr != nil {
			tr.end(sim)
		}
		out := s.Result()
		q.jct += out.CompletionSeconds()
		q.accuracy += 100 * out.Accuracy() / float64(len(r.cases))
		q.coverage += 100 * out.Coverage() / float64(len(r.cases))
		st.ops += out.Accesses
	}
	reg.end(&st)
	if tr != nil {
		tr.end(pass)
		r.tracedNs += st.wallNs
		for _, tm := range models {
			r.predicts += tm.calls
			r.predictNs += tm.ns
		}
	}

	// The quality numbers are a pure function of the seed: a pass that reads
	// differently from the first one computed something else.
	if r.first == nil {
		r.first = &q
	} else if q != *r.first {
		r.mismatch = true
		st.failed = st.ops
	}
	r.lastK = ks[0]
	r.trains = 0
	for i, c := range r.cases {
		st.failed += datapathFailures(ks[i])
		r.trains += ps[i].Trains(c.trace[0].PID)
	}
	sort.Float64s(r.stepNs)
	st.opNsP50, _ = percentile(r.stepNs, 0.5)
	st.extra = map[string]float64{
		"jct_virtual_s":         q.jct,
		"prefetch_accuracy_pct": q.accuracy,
		"prefetch_coverage_pct": q.coverage,
	}
	return st, nil
}

func (r *learnedRunner) finish(res *result, tr *tracer) {
	if r.mismatch {
		res.Correct = false
		res.Notes = append(res.Notes, "quality numbers differed between passes of one seed")
	}
	if tr == nil {
		return
	}
	// Each trace ran on its own kernel; the counts reported are the video
	// kernel's (the larger trace) of the last pass.
	kernelCounters(res, r.lastK)
	d := sortedCopy(tr.durations(spanOnAccess))
	if len(d) > 0 {
		p50, _ := percentile(d, 0.5)
		res.setLayer("rmtprefetch.on_access_ns_p50", p50)
	}
	if p999, ok := percentile(d, 0.999); ok {
		res.setLayer("rmtprefetch.on_access_us_p999", p999/1e3)
	}
	res.setLayer("rmtprefetch.slowest_1pct_time_share", topShare(d, 0.01))
	res.setLayer("rmtprefetch.trains", float64(r.trains))
	var simSelf int64
	for _, c := range r.cases {
		simSelf += tr.selfByName(spanSim + c.name)
	}
	if len(d) > 0 {
		res.setLayer("memsim.self_ns_per_access", float64(simSelf)/float64(len(d)))
	}
	res.setLayer("ml.model_predicts", float64(r.predicts))
	if r.tracedNs > 0 {
		res.setLayer("ml.predict_time_share", float64(r.predictNs)/float64(r.tracedNs))
	}
}

// tracedPrefetcher is the timing decorator around the memsim.Prefetcher: one
// span per OnAccess, nested under the simulator's span, so the simulator's
// self time is its span minus these children.
type tracedPrefetcher struct {
	*rmtprefetch.Prefetcher
	tr     *tracer
	name   uint16
	n      int64
	models *timedModels
}

func (t *tracedPrefetcher) OnAccess(pid, page int64, hit bool) []int64 {
	id := t.tr.begin(t.name, t.n)
	pages := t.Prefetcher.OnAccess(pid, page, hit)
	t.tr.end(id)
	t.n++
	t.models.rewrap(t.tr, pid)
	return pages
}

// timedModels keeps a timing decorator around the process's core.Model. The
// prefetcher swaps a freshly trained model in after every retrain, so the
// decorator is re-applied whenever the process's train count moved — outside
// the OnAccess span and inside a span of its own, so the swap is charged to
// the harness, not to a layer. Predict calls are far too many (over a million
// per pass) to keep as spans; the decorator keeps their count and total time.
type timedModels struct {
	k      *core.Kernel
	p      *rmtprefetch.Prefetcher
	seen   bool
	trains int
	calls  int64
	ns     int64
}

func (tm *timedModels) rewrap(tr *tracer, pid int64) {
	trains := tm.p.Trains(pid)
	if tm.seen && trains == tm.trains {
		return
	}
	tm.seen, tm.trains = true, trains
	id, ok := tm.p.ModelID(pid)
	if !ok {
		return
	}
	sp := tr.begin(tr.name(spanRewrap), int64(trains))
	defer tr.end(sp)
	m, err := tm.k.Model(id)
	if err != nil {
		return
	}
	if _, wrapped := m.(*timedModel); wrapped {
		return
	}
	// A refused swap leaves the plain model in place: the run stays correct
	// and only this model's predictions go uncounted.
	_ = tm.k.SwapModel(id, &timedModel{Model: m, agg: tm})
}

type timedModel struct {
	core.Model
	agg *timedModels
}

func (m *timedModel) Predict(x []int64) int64 {
	t0 := time.Now()
	v := m.Model.Predict(x)
	m.agg.ns += int64(time.Since(t0))
	m.agg.calls++
	return v
}
