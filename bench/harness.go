package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	// seconds is how long the run measures. Segments have a fixed op count;
	// the run takes segments until this much timed work has accumulated, so
	// a slower build takes fewer segments of the same size, never smaller
	// ones.
	seconds float64
	traced  bool
	// maxSegments, when > 0, caps the segment count (tests use it).
	maxSegments int
	// scale shrinks every fixed op count (1 = the benchmark's own sizes);
	// tests run at a small fraction. It is not a command-line option.
	scale float64
	// traceDir receives trace-<workload>.json from a traced run.
	traceDir string
	// tmpDir hosts the durable planes' state directories ("" = os.TempDir()).
	tmpDir string
}

func (c runConfig) scaled(n int) int {
	if c.scale <= 0 || c.scale >= 1 {
		return n
	}
	if m := int(float64(n) * c.scale); m >= 1 {
		return m
	}
	return 1
}

// segStats is what one fixed-op-count segment measured.
type segStats struct {
	ops     int64
	failed  int64
	wallNs  int64
	cpuNs   int64
	mallocs uint64
	// opNsP50 is the segment's median per-op wall latency.
	opNsP50 float64
	// extra carries workload-specific per-segment end-to-end values, keyed
	// by metric name (jct_virtual_s, ctrl_commit_us_p50, recover_ms, ...).
	extra map[string]float64
	// traced marks a segment run with span recording on.
	traced bool
}

// runner is one workload's state across a run. Set-up happens in the
// constructor and, for workloads whose segment is a whole pass on a fresh
// system, again inside segment; every set-up appends its wall time to the
// sample list returned by setups.
type runner interface {
	// warmup fills JIT, pools, memo and verdict caches; untimed.
	warmup()
	// segment runs one fixed-op-count segment; tr is nil for an untraced one.
	segment(tr *tracer) (segStats, error)
	// setups lists every set-up's wall time in seconds.
	setups() []float64
	// finish records the end-of-run correctness verdict and, with tr non-nil,
	// the workload's own counters and per-layer metrics.
	finish(res *result, tr *tracer)
}

const (
	// A workload sets itself up repeatedly before the run — at least
	// setupMinReps times and until setupBudget is spent, at most setupMaxReps
	// — and setup_s is taken over all of them: a sub-millisecond set-up needs
	// many repetitions before its figure holds still.
	setupMinReps = 9
	setupMaxReps = 200
	setupBudget  = 300 * time.Millisecond
)

// repeatSetup runs one workload's set-up function under that policy.
func (c runConfig) repeatSetup(setup func() error) error {
	budget := time.Duration(c.scaled(int(setupBudget)))
	start := time.Now()
	for i := 0; i < setupMaxReps; i++ {
		if i >= setupMinReps && time.Since(start) >= budget {
			break
		}
		if err := setup(); err != nil {
			return err
		}
	}
	return nil
}

// cpuNow is the process's user+system CPU time so far.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// mallocsNow is the process's cumulative heap allocation count.
func mallocsNow() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// region measures wall, CPU and allocation deltas around a timed region.
type region struct {
	t0      time.Time
	cpu0    int64
	malloc0 uint64
}

func beginRegion() region {
	return region{malloc0: mallocsNow(), cpu0: cpuNow(), t0: time.Now()}
}

func (r region) end(st *segStats) {
	st.wallNs = int64(time.Since(r.t0))
	st.cpuNs = cpuNow() - r.cpu0
	st.mallocs = mallocsNow() - r.malloc0
}

// rssPeakMB reads the process's resident-set high-water mark.
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// newRunner builds the named workload's runner (performing its set-up).
func newRunner(cfg runConfig) (runner, *result, error) {
	res := &result{Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.traced, E2E: make(map[string]sample)}
	var (
		r   runner
		err error
	)
	switch cfg.workload {
	case wlFireHot:
		r, err = newFireRunner(cfg, res, false)
	case wlFireCold:
		r, err = newFireRunner(cfg, res, true)
	case wlLearned:
		r, err = newLearnedRunner(cfg, res)
	case wlChurn:
		r, err = newChurnRunner(cfg, res)
	default:
		err = fmt.Errorf("bench: unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	return r, res, err
}

// runWorkload is one complete run: set-up → warm-up → segments → checks.
//
// An untraced run spends cfg.seconds on untraced segments and reports the
// end-to-end metrics. A traced run spends half of cfg.seconds alternating
// untraced and traced segments (their CPU-per-op ratio is the tracing
// overhead), then measures the workload-independent layers in isolation
// (ledger arms and isolated calls), and writes the span file.
func runWorkload(cfg runConfig) (*result, error) {
	r, res, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	r.warmup()

	var tr *tracer
	budget := time.Duration(cfg.seconds * float64(time.Second))
	minSegs := 3
	if cfg.traced {
		tr = newTracer()
		budget /= 2
		minSegs = 2
	}
	var segs []segStats
	var timed time.Duration
	for len(segs) < minSegs || timed < budget {
		if cfg.maxSegments > 0 && len(segs) >= cfg.maxSegments {
			break
		}
		var str *tracer
		if cfg.traced && len(segs)%2 == 1 {
			str = tr
		}
		st, err := r.segment(str)
		if err != nil {
			return nil, err
		}
		st.traced = str != nil
		segs = append(segs, st)
		timed += time.Duration(st.wallNs)
	}

	summarize(res, segs, r.setups())
	r.finish(res, tr)
	res.setE2E("rss_peak_mb", rssPeakMB())
	res.setE2E("failed_op_share", float64(res.Failed)/float64(res.Attempted))
	res.Correct = res.Correct && res.Failed == 0

	if cfg.traced {
		layerMetrics(cfg, res)
		path, err := tr.write(cfg.traceDir, cfg.workload, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("bench: writing trace: %w", err)
		}
		res.TraceFile = path
	}
	return res, nil
}

// summarize folds the segments into the common end-to-end metrics. Timing
// metrics are the fast decile across segments (see fastDecile); in a traced
// run only the untraced segments count toward them, and the traced ones give
// the overhead.
func summarize(res *result, segs []segStats, setups []float64) {
	res.Correct = true
	var rate, cpu, p50, tracedCPU []float64
	var mallocs uint64
	var ops int64
	extra := make(map[string][]float64)
	for _, s := range segs {
		res.Attempted += s.ops
		res.Failed += s.failed
		if s.traced {
			tracedCPU = append(tracedCPU, float64(s.cpuNs)/float64(s.ops))
			continue
		}
		rate = append(rate, float64(s.ops)/(float64(s.wallNs)/1e9))
		cpu = append(cpu, float64(s.cpuNs)/float64(s.ops))
		p50 = append(p50, s.opNsP50)
		mallocs += s.mallocs
		ops += s.ops
		for k, v := range s.extra {
			extra[k] = append(extra[k], v)
		}
	}
	res.setE2ESegs("setup_s", setups)
	res.setE2ESegs("ops_per_s", rate)
	res.setE2ESegs("cpu_ns_per_op", cpu)
	res.setE2ESegs("op_ns_p50", p50)
	res.setE2E("allocs_per_op", float64(mallocs)/float64(ops))
	names := make([]string, 0, len(extra))
	for k := range extra {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		res.setE2ESegs(k, extra[k])
	}
	if res.Traced {
		res.setLayer("bench.segments", float64(len(segs)))
		res.setLayer("bench.segment_iqr_pct", iqrPct(rate))
		if len(tracedCPU) > 0 && len(cpu) > 0 {
			res.setLayer("bench.trace_overhead_pct", 100*(fastDecile(tracedCPU, false)/fastDecile(cpu, false)-1))
		}
	}
}
