// Package rmtprefetch wires case study #1 through the full RMT stack: the
// page_access data-collection table at mm/lookup_swap_cache and the
// page_prefetch inference table at mm/swap_cluster_readahead, both driving
// verified bytecode programs in the in-kernel virtual machine, with an
// online-trained integer decision tree pushed through the control plane.
//
// This is the executable form of the program sketch in Figure 1 of the
// paper: per-process match entries, a collect action that appends clamped
// page deltas to the execution context, and a prefetch action that rolls the
// tree forward and emits pages through the rate-limited rmt_emit helper.
package rmtprefetch

import (
	"fmt"
	"math"

	"rmtk/internal/core"
	"rmtk/internal/ctrl"
	"rmtk/internal/isa"
	"rmtk/internal/memsim"
	"rmtk/internal/ml/dt"
	"rmtk/internal/prefetch"
	"rmtk/internal/table"
)

// Context field assignments in the kernel ctx store.
const (
	fieldLastPage = 0
	fieldHasLast  = 1
)

// Table names (after Figure 1).
const (
	AccessTable   = "page_access_tab"
	PrefetchTable = "page_prefetch_tab"
)

// Config parameterizes the RMT prefetcher. The delta-history width, the
// rollout depth, the far-jump clamp and the tree induction are the direct
// policy's: prefetch.MLHistory, MLDepth, MLClamp and MLTree.
type Config struct {
	// TrainEvery retrains a process's tree after this many of its
	// accesses. <=0 selects 512.
	TrainEvery int
	// FreezeAfter, when >0, stops retraining after a process has made this
	// many accesses (the frozen-model baseline of the online-adaptation
	// ablation).
	FreezeAfter int
	// Canary, when non-nil, routes retrained model pushes through a
	// shadow-mode canary instead of cutting the hot path over directly: the
	// candidate tree runs in shadow on live prefetch traffic, its predicted
	// pages are labeled against the pages the process actually accesses
	// next, and only a candidate whose shadow accuracy clears the gate is
	// promoted. At most one rollout is in flight per hook; retrain
	// boundaries hit while one is pending are skipped and retried at the
	// next boundary. ctrl.AccuracyCanaryConfig is the gate suited to it.
	Canary *ctrl.CanaryConfig
}

func (c Config) withDefaults() Config {
	if c.TrainEvery <= 0 {
		c.TrainEvery = 512
	}
	return c
}

// CollectProgramSource returns the assembler source of the shared
// data-collection program (R1 = pid, R2 = page): it computes the page delta,
// clamps it to the far-jump sentinel, pushes it into the process's history,
// and updates the last-page context fields.
func CollectProgramSource(clamp int64) string {
	return fmt.Sprintf(`; page access data collection (Figure 1: data_collection())
        ldctxt  r5, r1, %[2]d       ; has-last flag
        jeqi    r5, 0, first
        ldctxt  r4, r1, %[1]d       ; last page
        mov     r6, r2
        sub     r6, r4              ; delta = page - last
        movimm  r7, %[3]d
        min     r6, r7
        movimm  r7, -%[3]d
        max     r6, r7              ; clamp to far-jump sentinel
        histpush r1, r6
first:  stctxt  r1, %[1]d, r2
        movimm  r5, 1
        stctxt  r1, %[2]d, r5
        movimm  r0, 0
        exit
`, fieldLastPage, fieldHasLast, clamp)
}

// PrefetchProgramSource returns the assembler source of a per-process
// prefetch program (R1 = pid, R2 = page, R3 = prefetch degree from the table
// entry's parameter): it loads the delta history, and in unrolled rollout
// steps queries the model, stops at zero or sentinel predictions, and emits
// each predicted page through the rate-limited rmt_emit helper.
func PrefetchProgramSource(modelID int64, hist, maxDepth int, clamp int64) string {
	src := fmt.Sprintf(`; page prefetch prediction (Figure 1: ml_prediction())
        call    %d                  ; rmt_hist_len(pid)
        jlti    r0, %d, nofetch
        vecldhist v0, r1, %d        ; last deltas, oldest first
        ststack [0], r1             ; save pid across emit calls
        mov     r6, r2              ; rolling page cursor
`, core.HelperHistLen, hist, hist)
	for i := 0; i < maxDepth; i++ {
		src += fmt.Sprintf(`        jlei    r3, %d, done        ; degree reached?
        mlinfer r4, v0, %d          ; predicted next delta
        jeqi    r4, 0, done
        jgei    r4, %d, done        ; far-jump sentinel: stop
        jlei    r4, -%d, done
        add     r6, r4
        mov     r1, r6
        call    %d                  ; rmt_emit(page)
        ldstack r1, [0]
        vecpush v0, r4              ; roll the history window
`, i, modelID, clamp, clamp, core.HelperEmit)
	}
	src += `done:
nofetch:
        movimm  r0, 0
        exit
`
	return src
}

// Prefetcher routes prefetching decisions through the kernel's RMT
// datapaths; it implements memsim.Prefetcher.
type Prefetcher struct {
	K     *core.Kernel
	Plane *ctrl.Plane
	cfg   Config
	name  string

	collectID int64
	procs     map[int64]*proc
	delayNs   int64 // injected stall pending charge to the simulator clock

	hist []int64 // retrain scratch: the history read out of the context store
}

type proc struct {
	modelID  int64
	progID   int64
	accesses int
	learn    *ctrl.Learner
	// window holds the training rows over the process's delta history as of
	// its last retrain step, when the history's push count read pushes.
	window *dt.Online
	pushes uint64
	// pending holds the in-flight candidate's shadow-predicted pages awaiting
	// labeling, oldest first.
	pending []int64
	// out is the common path's results, reused across the process's
	// accesses: FireBatch appends each event's emissions into its result's
	// buffer, so once the prefetch result's buffer has grown an access
	// allocates none.
	out [2]core.FireResult
}

// pendingCap bounds the per-process set of unlabeled shadow predictions: a
// predicted page still unaccessed when capacity forces it out is labeled
// incorrect — capacity eviction is what turns never-hit predictions into
// negative labels.
const pendingCap = 64

// New installs the tables and the shared collect program on k and returns
// the prefetcher. Per-process programs and entries are installed lazily as
// processes appear ("new entries are inserted when applications are
// created", §3.1).
func New(k *core.Kernel, plane *ctrl.Plane, cfg Config) (*Prefetcher, error) {
	cfg = cfg.withDefaults()
	p := &Prefetcher{K: k, Plane: plane, cfg: cfg, name: "rmt-ml", procs: make(map[int64]*proc)}

	if _, _, err := plane.CreateTable(AccessTable, memsim.HookLookupSwapCache, table.MatchExact); err != nil {
		return nil, err
	}
	if _, _, err := plane.CreateTable(PrefetchTable, memsim.HookSwapClusterReadahead, table.MatchExact); err != nil {
		return nil, err
	}
	insns, err := isa.Assemble(CollectProgramSource(prefetch.MLClamp))
	if err != nil {
		return nil, fmt.Errorf("rmtprefetch: collect program: %w", err)
	}
	prog := &isa.Program{Name: "page_access_collect", Hook: memsim.HookLookupSwapCache, Insns: insns}
	id, _, err := plane.LoadProgram(prog)
	if err != nil {
		return nil, fmt.Errorf("rmtprefetch: collect admission: %w", err)
	}
	p.collectID = id

	// Baseline fallback for the mm/* hooks: when the supervisor quarantines a
	// prefetch program, its hook degrades to stock Linux readahead — the
	// learned datapath is contained to "never worse than the heuristic it
	// replaced". The readahead state warms up from the quarantined stream
	// itself (streak detection needs only a couple of accesses).
	ra := prefetch.NewReadahead()
	k.RegisterFallback("mm/*", core.FallbackFunc{
		Label: ra.Name(),
		Fn: func(hook string, key, arg2, arg3 int64) (int64, []int64) {
			if hook != memsim.HookSwapClusterReadahead {
				return core.DefaultVerdict, nil
			}
			return 0, ra.OnAccess(key, arg2, arg3 != 0)
		},
	})
	return p, nil
}

// WithName renames the policy in reports and returns it.
func (p *Prefetcher) WithName(name string) *Prefetcher {
	p.name = name
	return p
}

// Name implements memsim.Prefetcher.
func (p *Prefetcher) Name() string { return p.name }

// admit installs the per-process model, prefetch program and table entries.
func (p *Prefetcher) admit(pid int64) (*proc, error) {
	// Placeholder model predicting "no movement" until first training; the
	// prefetch program then exits without emitting.
	modelID := p.K.RegisterModel(&core.FuncModel{
		Fn:    func([]int64) int64 { return 0 },
		Feats: prefetch.MLHistory,
		Ops:   1,
		Size:  8,
	})
	src := PrefetchProgramSource(modelID, prefetch.MLHistory, prefetch.MLDepth, prefetch.MLClamp)
	insns, err := isa.Assemble(src)
	if err != nil {
		return nil, fmt.Errorf("rmtprefetch: prefetch program: %w", err)
	}
	prog := &isa.Program{
		Name:    fmt.Sprintf("page_prefetch_%d", pid),
		Hook:    memsim.HookSwapClusterReadahead,
		Insns:   insns,
		Helpers: []int64{core.HelperEmit, core.HelperHistLen},
		Models:  []int64{modelID},
	}
	progID, report, err := p.Plane.LoadProgram(prog)
	if err != nil {
		return nil, fmt.Errorf("rmtprefetch: prefetch admission: %w", err)
	}
	if !report.NeedsRateLimit {
		return nil, fmt.Errorf("rmtprefetch: verifier failed to flag emitting program for rate limiting")
	}
	if err := p.Plane.AddEntry(AccessTable, &table.Entry{
		Key:    uint64(pid),
		Action: table.Action{Kind: table.ActionProgram, ProgID: p.collectID},
	}); err != nil {
		return nil, err
	}
	if err := p.Plane.AddEntry(PrefetchTable, &table.Entry{
		Key:    uint64(pid),
		Action: table.Action{Kind: table.ActionProgram, ProgID: progID, Param: prefetch.MLDepth},
	}); err != nil {
		return nil, err
	}
	pr := &proc{modelID: modelID, progID: progID, window: p.newWindow()}
	pr.learn = p.Plane.NewLearner(memsim.HookSwapClusterReadahead, modelID, p.cfg.Canary,
		func(key, _ int64, emissions []int64) {
			if key == pid {
				p.addPending(pr, emissions)
			}
		})
	p.procs[pid] = pr
	return pr, nil
}

// OnAccess implements memsim.Prefetcher: fire the collection hook, retrain
// periodically from the collected history, then fire the prefetch hook and
// return its emissions. The returned slice is valid until the next OnAccess
// for the same pid.
func (p *Prefetcher) OnAccess(pid, page int64, hit bool) []int64 {
	pr, ok := p.procs[pid]
	if !ok {
		var err error
		if pr, err = p.admit(pid); err != nil {
			return nil
		}
	}
	// Label in-flight shadow predictions against this real access before
	// anything else sees it: a pending predicted page being accessed is a
	// shadow hit.
	if pr.learn.InFlight() {
		p.labelAccess(pr, page)
	}

	// arg3 carries the hit/miss outcome so the readahead fallback (which is
	// fault-driven) can decide; the learned program's R3 is the prefetch
	// degree from its table entry's parameter and is unaffected.
	hitArg := int64(0)
	if hit {
		hitArg = 1
	}

	pr.accesses++
	retrainStep := pr.accesses%p.cfg.TrainEvery == 0 &&
		(p.cfg.FreezeAfter <= 0 || pr.accesses <= p.cfg.FreezeAfter)

	var res core.FireResult
	if retrainStep {
		// The retrain must see the collect fire's history push and the
		// prefetch fire must see the pushed model, so the two fires straddle
		// it un-batched on this (rare) step.
		cres := p.K.Fire(memsim.HookLookupSwapCache, pid, page, 0)
		p.delayNs += cres.DelayNs
		p.retrain(pid, pr)
		res = p.K.Fire(memsim.HookSwapClusterReadahead, pid, page, hitArg)
		p.delayNs += res.DelayNs
	} else {
		// Common path: collect + prefetch ride one batched snapshot. Events
		// run in order, and context-store writes (the collect program's
		// history push) are live state, not snapshotted, so the prefetch
		// program still observes this access's history.
		events := [2]core.Event{
			{Hook: memsim.HookLookupSwapCache, Key: pid, Arg2: page},
			{Hook: memsim.HookSwapClusterReadahead, Key: pid, Arg2: page, Arg3: hitArg},
		}
		p.K.FireBatch(events[:], pr.out[:])
		p.delayNs += pr.out[0].DelayNs + pr.out[1].DelayNs
		res = pr.out[1]
	}

	// Pump the rollout lifecycle on the datapath's own event clock.
	if pr.learn.Advance() {
		pr.pending = nil
	}
	return res.Emissions
}

// labelAccess marks a pending shadow prediction of page (if any) correct.
func (p *Prefetcher) labelAccess(pr *proc, page int64) {
	for i, pg := range pr.pending {
		if pg == page {
			pr.pending = append(pr.pending[:i], pr.pending[i+1:]...)
			pr.learn.Label(true)
			return
		}
	}
}

// addPending queues shadow-predicted pages for labeling; predictions forced
// out by capacity before being accessed are labeled incorrect. Consecutive
// rollouts predict overlapping page windows, so pages already pending are
// not re-queued — without dedupe a healthy candidate's own overlap would
// evict (and mislabel) its deeper predictions.
func (p *Prefetcher) addPending(pr *proc, pages []int64) {
next:
	for _, pg := range pages {
		for _, have := range pr.pending {
			if have == pg {
				continue next
			}
		}
		if len(pr.pending) >= pendingCap {
			pr.pending = pr.pending[1:]
			pr.learn.Label(false)
		}
		pr.pending = append(pr.pending, pg)
	}
}

// TakeDelay implements memsim.Delayer: it drains injected stall accumulated
// by the fault framework so the simulator charges it to the virtual clock.
func (p *Prefetcher) TakeDelay() int64 {
	d := p.delayNs
	p.delayNs = 0
	return d
}

// newWindow returns an empty training window as wide as the rows a full
// history holds.
func (p *Prefetcher) newWindow() *dt.Online {
	return dt.NewOnline(dt.OnlineConfig{
		Tree:         prefetch.MLTree,
		Window:       p.K.Ctx().HistCap() - prefetch.MLHistory,
		RetrainEvery: math.MaxInt,
	})
}

// retrain brings the process's training window up to its collected delta
// history and hands it to the process's learner, which fits a fresh tree and
// pushes it through the control plane — the paper's periodic background
// training loop. A tree over budget or a push that keeps failing leaves the
// previous model serving.
//
// Row j of a history h is the window h[j:j+MLHistory] and its label the delta
// that followed, h[j+MLHistory]. Only the rows whose label the history gained
// since the last step are added; the window's capacity, the rows a full
// history holds, evicts the ones its history has lost. The window is folded
// forward even when the learner skips the fit, so it never falls behind.
func (p *Prefetcher) retrain(pid int64, pr *proc) {
	ctx := p.K.Ctx()
	if p.hist == nil {
		p.hist = make([]int64, ctx.HistCap())
	}
	pushes := ctx.HistPushes(pid)
	if !p.fold(pr, pid, pushes-pr.pushes) {
		// The history is not the one the window was folded from (it was
		// dropped and refilled): start over from all of it.
		pr.window = p.newWindow()
		p.fold(pr, pid, pushes)
	}
	pr.pushes = pushes
	if pr.window.WindowSize() < 2 {
		return
	}
	_ = pr.learn.Train(pr.window)
}

// fold adds to the process's window the rows over the newest gained values
// of its history and reports whether the window then holds as many rows as
// the history has. As gained is never short of the values pushed since the
// last fold (table.CtxStore.HistPushes), equal counts mean equal rows: a
// history dropped and refilled since is read back whole, so any surplus is
// rows left over from before the drop.
func (p *Prefetcher) fold(pr *proc, pid int64, gained uint64) bool {
	ctx, w := p.K.Ctx(), prefetch.MLHistory
	n := ctx.Hist(pid, p.hist[:min(uint64(len(p.hist)), gained+uint64(w))])
	hist := p.hist[:n]
	for j := 0; j+w < n; j++ {
		pr.window.Observe(hist[j:j+w], hist[j+w])
	}
	return pr.window.WindowSize() == min(len(p.hist)-w, max(0, ctx.HistLen(pid)-w))
}

// SetDepth reconfigures a process's prefetch degree at runtime by updating
// its table entry's parameter — the control plane's "more conservative in
// prefetching" move when accuracy degrades.
func (p *Prefetcher) SetDepth(pid int64, depth int) error {
	pr, ok := p.procs[pid]
	if !ok {
		return fmt.Errorf("rmtprefetch: unknown pid %d", pid)
	}
	return p.Plane.UpdateAction(PrefetchTable, uint64(pid), table.Action{
		Kind: table.ActionProgram, ProgID: pr.progID, Param: int64(depth),
	})
}

// ModelID returns the model id serving a process.
func (p *Prefetcher) ModelID(pid int64) (int64, bool) {
	pr, ok := p.procs[pid]
	if !ok {
		return 0, false
	}
	return pr.modelID, true
}

// Learner returns the learner that retrains and pushes a process's model —
// the way to push an external model (Push) or read its rollout (State) — or
// nil for an unknown process.
func (p *Prefetcher) Learner(pid int64) *ctrl.Learner {
	if pr, ok := p.procs[pid]; ok {
		return pr.learn
	}
	return nil
}

// Window returns a process's training window — the rows over its delta
// history as of its last retrain step, which that step fitted — or nil for
// an unknown process.
func (p *Prefetcher) Window(pid int64) *dt.Online {
	if pr, ok := p.procs[pid]; ok {
		return pr.window
	}
	return nil
}

// Trains reports how many model pushes a process has completed.
func (p *Prefetcher) Trains(pid int64) int {
	if pr, ok := p.procs[pid]; ok {
		return pr.learn.Trains()
	}
	return 0
}

var (
	_ memsim.Prefetcher = (*Prefetcher)(nil)
	_ memsim.Delayer    = (*Prefetcher)(nil)
)
