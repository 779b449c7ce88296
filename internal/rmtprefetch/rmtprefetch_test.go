package rmtprefetch

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"rmtk/internal/core"
	"rmtk/internal/ctrl"
	"rmtk/internal/memsim"
	"rmtk/internal/prefetch"
	"rmtk/internal/workload"
)

func newStack(t *testing.T, cfg Config) (*core.Kernel, *Prefetcher) {
	t.Helper()
	k := core.NewKernel(core.Config{CtxHistory: 4096})
	plane := ctrl.New(k)
	p, err := New(k, plane, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k, p
}

func TestProgramsAssembleAndVerify(t *testing.T) {
	k, p := newStack(t, Config{})
	// Touch one access so the per-pid program gets admitted.
	p.OnAccess(56, 100, false)
	if _, err := k.ProgramID("page_access_collect"); err != nil {
		t.Fatal("collect program missing")
	}
	progID, err := k.ProgramID("page_prefetch_56")
	if err != nil {
		t.Fatal("prefetch program missing")
	}
	// admit refuses a prefetch program the verifier did not flag for rate
	// limiting; the admitted copy carries the verifier's step bound and
	// reads the process's model.
	prog, err := k.Program(progID)
	if err != nil {
		t.Fatal(err)
	}
	if prog.StaticSteps <= 0 || !slices.Equal(prog.Models, []int64{p.procs[56].modelID}) {
		t.Fatalf("admitted program: %d static steps, models %v", prog.StaticSteps, prog.Models)
	}
}

func TestCollectsDeltasIntoContext(t *testing.T) {
	k, p := newStack(t, Config{})
	for _, page := range []int64{100, 103, 106} {
		p.OnAccess(56, page, false)
	}
	buf := make([]int64, 8)
	n := k.Ctx().Hist(56, buf)
	if n != 2 || buf[0] != 3 || buf[1] != 3 {
		t.Fatalf("collected deltas = %v (%d)", buf[:n], n)
	}
	// The far-jump clamp applies in-kernel.
	p.OnAccess(56, 100+1<<40, false)
	n = k.Ctx().Hist(56, buf)
	if buf[n-1] != 1<<17 {
		t.Fatalf("unclamped delta %d in context", buf[n-1])
	}
}

func TestLearnsStrideAndEmits(t *testing.T) {
	_, p := newStack(t, Config{TrainEvery: 128})
	var emissions []int64
	page := int64(0)
	for i := 0; i < 1500; i++ {
		page += 5
		emissions = p.OnAccess(56, page, false)
	}
	if len(emissions) == 0 {
		t.Fatal("no prefetch after training on a pure stride")
	}
	for i, e := range emissions {
		if want := page + int64(i+1)*5; e != want {
			t.Fatalf("emission %d = %d, want %d", i, e, want)
		}
	}
	if p.Trains(56) == 0 {
		t.Fatal("no model pushes recorded")
	}
}

func TestDepthParameterControlsRollout(t *testing.T) {
	_, p := newStack(t, Config{TrainEvery: 128})
	page := int64(0)
	for i := 0; i < 1000; i++ {
		page += 5
		p.OnAccess(56, page, false)
	}
	// Reconfigure the table entry to a conservative degree of 3.
	if err := p.SetDepth(56, 3); err != nil {
		t.Fatal(err)
	}
	page += 5
	emissions := p.OnAccess(56, page, false)
	if len(emissions) != 3 {
		t.Fatalf("depth 3 emitted %d pages: %v", len(emissions), emissions)
	}
	if err := p.SetDepth(99, 3); err == nil {
		t.Fatal("unknown pid accepted")
	}
}

func TestFreezeAfterStopsTraining(t *testing.T) {
	_, p := newStack(t, Config{TrainEvery: 128, FreezeAfter: 300})
	page := int64(0)
	for i := 0; i < 2000; i++ {
		page += 5
		p.OnAccess(56, page, false)
	}
	if got := p.Trains(56); got != 2 { // at accesses 128 and 256 only
		t.Fatalf("trains = %d, want 2", got)
	}
}

func TestModelIDExposed(t *testing.T) {
	_, p := newStack(t, Config{})
	if _, ok := p.ModelID(56); ok {
		t.Fatal("unknown pid has a model")
	}
	p.OnAccess(56, 1, false)
	if _, ok := p.ModelID(56); !ok {
		t.Fatal("admitted pid has no model")
	}
	if p.Trains(99) != 0 {
		t.Fatal("unknown pid trains")
	}
}

// TestPushKeepsBudgetCause: an external push behind a canary of a model above
// the gate's static ceiling fails with the cost check's cause before any
// shadow attaches.
func TestPushKeepsBudgetCause(t *testing.T) {
	cc := ctrl.AccuracyCanaryConfig()
	k, p := newStack(t, Config{Canary: &cc})
	if p.Learner(56) != nil {
		t.Fatal("unknown pid has a learner")
	}
	p.OnAccess(56, 1, false)
	big := &core.FuncModel{Fn: func([]int64) int64 { return 0 }, Feats: 8, Ops: cc.MaxStaticOps + 1}
	if err := p.Learner(56).Push(big); !errors.Is(err, ctrl.ErrStaticCost) {
		t.Fatalf("err = %v, want ErrStaticCost", err)
	}
	if got := k.Metrics.Counter("ctrl.canary_staged").Load(); got != 0 {
		t.Fatalf("canary_staged = %d, want 0", got)
	}
	if k.ShadowAt(memsim.HookSwapClusterReadahead) != nil {
		t.Fatal("shadow attached for a refused candidate")
	}
}

func TestMultiProcessIsolation(t *testing.T) {
	_, p := newStack(t, Config{TrainEvery: 128})
	// PID 1 strides by 3, PID 2 strides by 11; both must learn their own.
	p1, p2 := int64(0), int64(1<<20)
	var e1, e2 []int64
	for i := 0; i < 1500; i++ {
		p1 += 3
		p2 += 11
		e1 = p.OnAccess(1, p1, false)
		e2 = p.OnAccess(2, p2, false)
	}
	if len(e1) == 0 || e1[0] != p1+3 {
		t.Fatalf("pid1 emissions %v", e1)
	}
	if len(e2) == 0 || e2[0] != p2+11 {
		t.Fatalf("pid2 emissions %v", e2)
	}
}

// TestMatchesDirectPolicy: on the paper's video trace, the full-stack RMT
// pipeline must land within a small margin of the direct Go policy (they
// share the learning algorithm; only the execution substrate differs).
func TestMatchesDirectPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second end-to-end comparison")
	}
	trace := workload.VideoResize(workload.VideoResizeConfig{
		TraceConfig: workload.TraceConfig{Seed: 1, PID: 56, NoiseFrac: -1, WorkJitter: -1},
		RowJitter:   -1,
		Frames:      150,
	})
	cfg := memsim.Config{CacheSlots: 1024}
	direct := memsim.Run(cfg, prefetch.NewML(nil), trace)
	_, p := newStack(t, Config{})
	kernelRun := memsim.Run(cfg, p, trace)
	if diff := direct.Accuracy() - kernelRun.Accuracy(); diff > 0.05 || diff < -0.05 {
		t.Fatalf("accuracy diverges: direct %.3f vs kernel %.3f", direct.Accuracy(), kernelRun.Accuracy())
	}
	if diff := direct.Coverage() - kernelRun.Coverage(); diff > 0.05 || diff < -0.05 {
		t.Fatalf("coverage diverges: direct %.3f vs kernel %.3f", direct.Coverage(), kernelRun.Coverage())
	}
}

// TestAOTPrefetchFireAllocations: a fire of the generated prefetch program
// that emits a full burst allocates the emission list it hands back and
// nothing per helper call — the 13 calls' argument arrays live in the pooled
// scratch and the list is sized once, not doubled up to twelve.
func TestAOTPrefetchFireAllocations(t *testing.T) {
	if allocs := prefetchFireAllocs(t, core.ModeAOT); allocs > 2 {
		t.Fatalf("%.1f allocations per emitting AOT fire, want at most 2", allocs)
	}
}

// TestJITPrefetchFireAllocations: the same fire through the JIT's closures —
// one rmt_hist_len and twelve rmt_emit calls — allocates the emission list
// and nothing else: a helper call's argument block is a field of the pooled
// machine state, not a local that follows Env.Call's pointer to the heap.
func TestJITPrefetchFireAllocations(t *testing.T) {
	if allocs := prefetchFireAllocs(t, core.ModeJIT); allocs != 1 {
		t.Fatalf("%.1f allocations per emitting JIT fire, want 1 (the emission list)", allocs)
	}
}

// prefetchFireAllocs trains a prefetcher on a sequential scan until its
// program is installed, then counts the allocations of one fire that emits a
// full burst of twelve pages, on the engine mode selects and on no other.
func prefetchFireAllocs(t *testing.T, mode core.ExecMode) float64 {
	k := core.NewKernel(core.Config{CtxHistory: 4096, Mode: mode})
	p, err := New(k, ctrl.New(k), Config{})
	if err != nil {
		t.Fatal(err)
	}
	const pid = 56
	page := int64(1000)
	for ; p.Trains(pid) == 0; page++ { // a sequential scan: the tree learns delta 1
		if page > 5000 {
			t.Fatal("no model trained")
		}
		p.OnAccess(pid, page, false)
	}
	engineFires := func() (on, off int) {
		for _, line := range k.Metrics.Snapshot() {
			var tier string
			var n int
			if _, err := fmt.Sscanf(line, "core.engine_fires.%s %d", &tier, &n); err == nil {
				if tier == mode.String() {
					on += n
				} else {
					off += n
				}
			}
		}
		return on, off
	}
	on0, off0 := engineFires()
	var res core.FireResult
	allocs := testing.AllocsPerRun(200, func() {
		res = k.Fire(memsim.HookSwapClusterReadahead, pid, page, 0)
	})
	if len(res.Emissions) != 12 || res.Emissions[0] != page+1 || res.Emissions[11] != page+12 {
		t.Fatalf("emissions = %v, want the 12 pages after %d", res.Emissions, page)
	}
	if on, off := engineFires(); on-on0 != 201 || off != off0 { // AllocsPerRun warms up once
		t.Fatalf("%d of 201 fires ran on %v, %d elsewhere", on-on0, mode, off-off0)
	}
	return allocs
}

// TestOnAccessAllocatesNothing: between retrains, an access that emits a full
// burst allocates nothing — the batch's events and results, the emission
// buffer and the model's inference memo are all reused — and each returned
// burst is the right one.
func TestOnAccessAllocatesNothing(t *testing.T) {
	_, p := newStack(t, Config{FreezeAfter: 600})
	const pid = 56
	page := int64(1000)
	for ; page < 1700; page++ { // a sequential scan, trained once at access 512
		p.OnAccess(pid, page, false)
	}
	if p.Trains(pid) != 1 {
		t.Fatalf("%d trains, want 1", p.Trains(pid))
	}
	var got []int64
	allocs := testing.AllocsPerRun(200, func() {
		got = p.OnAccess(pid, page, false)
		if len(got) != 12 || got[0] != page+1 || got[11] != page+12 {
			t.Fatalf("page %d: emissions %v, want the 12 pages after it", page, got)
		}
		page++
	})
	if allocs != 0 {
		t.Fatalf("%.2f allocations per access, want 0", allocs)
	}
}

// TestWindowFollowsTheHistory checks the training window against the rows
// over the delta history at retrain steps: while the history fills, once it
// wraps, and after the process's context is dropped and refilled — to fewer
// values than it held, then to more — when the push count and the window
// disagree and the window is rebuilt from the whole history.
func TestWindowFollowsTheHistory(t *testing.T) {
	const pid, trainEvery, hist = 56, 64, prefetch.MLHistory
	k := core.NewKernel(core.Config{CtxHistory: 256})
	p, err := New(k, ctrl.New(k), Config{TrainEvery: trainEvery})
	if err != nil {
		t.Fatal(err)
	}
	page := int64(0)
	steps := 0
	access := func(n int) {
		for range n {
			page += []int64{1, 1, 3, 1, 7}[page%5]
			p.OnAccess(pid, page, false)
			if p.procs[pid].accesses%trainEvery != 0 {
				continue
			}
			steps++
			buf := make([]int64, k.Ctx().HistCap())
			h := buf[:k.Ctx().Hist(pid, buf)]
			X, y := p.Window(pid).Window()
			if len(X) != max(0, len(h)-hist) {
				t.Fatalf("step %d: %d rows over a history of %d", steps, len(X), len(h))
			}
			for j := range X {
				if !slices.Equal(X[j], h[j:j+hist]) || y[j] != h[j+hist] {
					t.Fatalf("step %d: row %d is %v→%d, want %v→%d", steps, j, X[j], y[j], h[j:j+hist], h[j+hist])
				}
			}
		}
	}
	access(640) // fills the 256-value history, then wraps it
	k.Ctx().Drop(pid)
	access(64 * 2) // refills to fewer values than the window held
	k.Ctx().Drop(pid)
	access(64 * 6) // and to more
	if steps != (640+128+384)/trainEvery {
		t.Fatalf("%d retrain steps checked", steps)
	}
}
