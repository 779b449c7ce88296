package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"

	"rmtk/internal/core"
	"rmtk/internal/ctrl"
	"rmtk/internal/experiments"
	"rmtk/internal/ml/dt"
	"rmtk/internal/table"
	"rmtk/internal/wal"
)

const (
	// churnMutations is the fixed length of one ctrl_churn pass. The control
	// plane has no way to remove a table or a program, so every LoadProgram
	// and Txn grows the route snapshot for good; a fixed-length pass on a
	// fresh plane is what keeps the work per segment identical.
	churnMutations = 256
	// churnFiresPerMutation is the read traffic between two mutations, and
	// churnFlows the flow set it cycles over: the first quarter of fire_hot's
	// seeded flow order. Every commit invalidates the verdict cache, so with
	// as many flows as fires between commits no fire would ever hit; with a
	// quarter, the first cycle after a commit refills and three cycles hit —
	// the sawtooth this workload exists to show.
	churnFiresPerMutation = 2048
	churnFlows            = flowCount / 4
	// churnTxnEntries is the size of one transaction: a table plus entries.
	churnTxnEntries = 8

	churnTable = "shardscale_tab"
	churnHook  = experiments.HotPathHook
	txnHook    = "bench/txn"
)

// Mutation kinds, in the order the per-kind metrics are reported.
const (
	mutUpdate = iota
	mutPush
	mutTxn
	mutLoad
	mutKinds
)

var mutSpan = [mutKinds]string{"ctrl.UpdateAction", "ctrl.PushModel", "ctrl.Txn.Commit", "ctrl.LoadProgram"}
var mutMetric = [mutKinds]string{"ctrl.update_action_us", "ctrl.push_model_us", "ctrl.txn_commit_us", "ctrl.load_program_us"}

const (
	spanCheckpoint = "ctrl.Checkpoint"
	spanRecover    = "ctrl.Recover"
)

// churnSys is one pass's system under test: a durable plane over a full-stack
// kernel serving the fire_hot flow set.
type churnSys struct {
	dir     string
	k       *core.Kernel
	p       *ctrl.Plane
	orc     oracle
	base    int64 // the fixture program (AOT tier)
	modelID int64
	// keyAdd is what the program behind each key adds to the fixture's
	// linear form; the oracle follows every UpdateAction.
	keyAdd [experiments.HotPathKeys]int64
	// latest is the most recently loaded variant and its constant.
	latest, latestAdd int64
}

// churnRunner drives ctrl_churn: writes beside reads.
type churnRunner struct {
	cfg       runConfig
	flows     []flow
	matrix    core.Matrix
	order     []int // seeded rotation of the mutation kinds
	mutations int
	ckptEvery int
	setupS    []float64

	events []core.Event
	out    []core.FireResult
	durs   []float64

	// Accumulated over every pass of the run.
	commitUs  []float64
	kindUs    [mutKinds][]float64
	ckptMs    []float64
	counters  map[string]sample
	walRecs   float64
	walBytes  float64
	gens      float64
	refill    float64
	restoreMs []float64
	replayUs  []float64
	broken    string
}

func newChurnRunner(cfg runConfig, res *result) (*churnRunner, error) {
	r := &churnRunner{
		cfg:       cfg,
		flows:     genFlows(cfg.seed)[:churnFlows],
		mutations: cfg.scaled(churnMutations),
		events:    make([]core.Event, fireBatch),
		out:       make([]core.FireResult, fireBatch),
	}
	if r.mutations < 8 {
		r.mutations = 8
	}
	r.ckptEvery = r.mutations / 4
	res.InputHash = flowHash(r.flows)
	r.order = rand.New(rand.NewSource(cfg.seed)).Perm(mutKinds)

	// The durable plane has to install the fixture through its own logged
	// calls, but the matrix stays the fixture's.
	m, err := fixtureMatrix()
	if err != nil {
		return nil, err
	}
	r.matrix = *m

	if err := cfg.repeatSetup(func() error {
		sys, err := r.setup()
		if err == nil {
			sys.discard()
		}
		return err
	}); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *churnRunner) setups() []float64 { return r.setupS }

func churnTree(label int64) *core.TreeModel {
	return core.NewTreeModel(&dt.Tree{
		NumFeats: 1,
		Nodes: []dt.Node{
			{Feat: 0, Thresh: 4, Left: 1, Right: 2},
			{Feat: -1, Label: 0},
			{Feat: -1, Label: label},
		},
	})
}

// setup opens a fresh durable plane and installs the fixture through it. The
// log runs with NoSync so the program, not the sandbox's disk, is measured.
// The matrix is the one thing the log cannot carry, so set-up ends with a
// checkpoint: every recovery of this directory restores from one.
func (r *churnRunner) setup() (*churnSys, error) {
	t0 := time.Now()
	dir, err := os.MkdirTemp(r.cfg.tmpDir, "rmtk-bench-churn-*")
	if err != nil {
		return nil, err
	}
	s := &churnSys{dir: dir, k: core.NewKernel(core.Config{Mode: core.ModeAOT})}
	fail := func(err error) (*churnSys, error) {
		s.discard()
		return nil, err
	}
	mat := r.matrix
	if id, err := s.k.RegisterMatrix(&mat); err != nil || id != hotMatrixID {
		return fail(fmt.Errorf("bench: fixture matrix registered as %d: %v", id, err))
	}
	attachFullStack(s.k)
	if s.p, err = ctrl.Open(s.k, dir, wal.Options{NoSync: true}); err != nil {
		return fail(err)
	}
	prog, err := hotProgram("shardscale_pure", churnHook, hotMatrixID, 0)
	if err != nil {
		return fail(err)
	}
	if s.base, _, err = s.p.LoadProgram(prog); err != nil {
		return fail(err)
	}
	s.latest = s.base
	if _, _, err := s.p.CreateTable(churnTable, churnHook, table.MatchExact); err != nil {
		return fail(err)
	}
	for key := int64(0); key < experiments.HotPathKeys; key++ {
		if err := s.p.AddEntry(churnTable, programEntry(key, s.base)); err != nil {
			return fail(err)
		}
	}
	if s.modelID, err = s.p.RegisterModel(churnTree(1)); err != nil {
		return fail(err)
	}
	if _, err := s.p.Checkpoint(); err != nil {
		return fail(err)
	}
	if s.orc, err = kernelOracle(s.k); err != nil {
		return fail(err)
	}
	r.setupS = append(r.setupS, time.Since(t0).Seconds())
	return s, nil
}

// discard closes the log (if still open) and removes the state directory.
func (s *churnSys) discard() {
	if s.p != nil && s.p.WAL() != nil {
		_ = s.p.WAL().Close() // the directory is about to be deleted
	}
	os.RemoveAll(s.dir)
}

// mutate applies mutation m and updates the oracle's view of the tables.
func (r *churnRunner) mutate(s *churnSys, m int) (kind int, err error) {
	kind = r.order[m%mutKinds]
	switch kind {
	case mutUpdate:
		// Retarget one key to the most recently loaded variant: from the next
		// batch on, that key's verdict carries the variant's constant.
		key := int64(m*37) % experiments.HotPathKeys
		err = s.p.UpdateAction(churnTable, uint64(key), table.Action{Kind: table.ActionProgram, ProgID: s.latest})
		if err == nil {
			s.keyAdd[key] = s.latestAdd
		}
	case mutPush:
		err = s.p.PushModel(s.modelID, churnTree(int64(m)+2), 0, 0)
	case mutTxn:
		txn := s.p.Begin()
		name := fmt.Sprintf("txn_tab_%d", m)
		txn.CreateTable(name, txnHook, table.MatchExact)
		for e := int64(0); e < churnTxnEntries; e++ {
			txn.AddEntry(name, &table.Entry{Key: uint64(e), Action: table.Action{Kind: table.ActionParam, Param: int64(m) + e + 1}})
		}
		err = txn.Commit()
	case mutLoad:
		// A fresh variant: verifier + JIT compile on the commit path.
		add := seedConst(r.cfg.seed, m+1)
		prog, perr := hotProgram(fmt.Sprintf("variant_%d", m), churnHook, hotMatrixID, add)
		if perr != nil {
			return kind, perr
		}
		var id int64
		if id, _, err = s.p.LoadProgram(prog); err == nil {
			s.latest, s.latestAdd = id, add
		}
	}
	return kind, err
}

// fires runs churnFiresPerMutation fires from batch index b on, returning the
// next batch index and the failed count.
func (r *churnRunner) fires(s *churnSys, b int64, tr *tracer, name uint16) (int64, int64) {
	var failed int64
	prev := time.Now()
	for i := 0; i < churnFiresPerMutation/fireBatch; i++ {
		fillBatch(r.events, r.flows, b, churnHook, false)
		s.k.FireBatch(r.events, r.out)
		for j := range r.out {
			ev := &r.events[j]
			if failedFire(&r.out[j], s.orc.verdict(ev.Key, ev.Arg2, ev.Arg3)+s.keyAdd[ev.Key]) {
				failed++
			}
		}
		now := time.Now()
		r.durs = append(r.durs, float64(now.Sub(prev)))
		if tr != nil {
			tr.add(name, b, prev, now)
		}
		prev = now
		b++
	}
	return b, failed
}

// timeCall runs fn, returns its wall time and records it as a span.
func timeCall(tr *tracer, span string, op int64, fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	if tr != nil {
		tr.add(tr.name(span), op, t0, t1)
	}
	return t1.Sub(t0), err
}

func (r *churnRunner) warmup() {
	// One untimed pass: the Go runtime, the temp filesystem and the AOT
	// registry are warm before the first measured pass. Each measured pass
	// still starts from a fresh kernel and plane.
	_, _ = r.segment(nil)
	r.commitUs, r.ckptMs = nil, nil
	r.kindUs = [mutKinds][]float64{}
}

func (r *churnRunner) segment(tr *tracer) (segStats, error) {
	var st segStats
	s, err := r.setup()
	if err != nil {
		return st, err
	}
	defer s.discard()

	r.durs = r.durs[:0]
	var pass int32
	var batchName uint16
	if tr != nil {
		batchName = tr.name(spanBatch + churnHook)
		pass = tr.begin(tr.name(spanPass), int64(len(r.setupS)))
	}
	gen0 := s.k.Generation()
	var commits []float64
	var b int64
	reg := beginRegion()
	for m := 0; m < r.mutations; m++ {
		var failed int64
		b, failed = r.fires(s, b, tr, batchName)
		st.failed += failed
		t0 := time.Now()
		kind, err := r.mutate(s, m)
		t1 := time.Now()
		if err != nil {
			return st, fmt.Errorf("bench: ctrl_churn mutation %d: %w", m, err)
		}
		if tr != nil {
			tr.add(tr.name(mutSpan[kind]), int64(m), t0, t1)
		}
		us := float64(t1.Sub(t0)) / 1e3
		commits = append(commits, us)
		r.kindUs[kind] = append(r.kindUs[kind], us)
		if (m+1)%r.ckptEvery == 0 && m+1 < r.mutations {
			d, err := timeCall(tr, spanCheckpoint, int64(m), func() error { _, e := s.p.Checkpoint(); return e })
			if err != nil {
				return st, fmt.Errorf("bench: ctrl_churn checkpoint: %w", err)
			}
			r.ckptMs = append(r.ckptMs, float64(d)/1e6)
		}
	}
	reg.end(&st)
	if tr != nil {
		tr.end(pass)
	}
	st.ops = b * fireBatch

	// Counts, before the equivalence probe fires touch them.
	scratch := &result{}
	kernelCounters(scratch, s.k)
	r.counters = scratch.Layer
	r.gens = float64(s.k.Generation() - gen0)
	r.refill = float64(s.k.VerdictCacheStats().Misses) / float64(r.mutations)
	r.walRecs, r.walBytes = float64(s.p.WAL().Seq()), float64(s.p.WAL().Size())

	// Recover the final log into a fresh kernel and compare.
	recoverMs, stats, err := r.recoverAndCheck(s, tr)
	if err != nil {
		return st, err
	}
	if tr != nil {
		// Layer split, traced passes only: checkpoint the full state and
		// recover once more — that recovery replays nothing, so it is the
		// restore cost alone; the rest of the first recovery, per replayed
		// record, is the replay cost (the second checkpoint is slightly
		// larger, so this slightly under-reads).
		restoreMs, err := r.restoreOnly(s)
		if err != nil {
			return st, err
		}
		r.restoreMs = append(r.restoreMs, restoreMs)
		if stats.Replayed > 0 {
			r.replayUs = append(r.replayUs, math.Max(0, 1e3*(recoverMs-restoreMs)/float64(stats.Replayed)))
		}
	}

	r.commitUs = append(r.commitUs, commits...)
	sort.Float64s(r.durs)
	p50, _ := percentile(r.durs, 0.5)
	st.opNsP50 = p50 / fireBatch
	st.extra = map[string]float64{
		"ctrl_commit_us_p50": median(commits),
		"recover_ms":         recoverMs,
	}
	if r.broken != "" {
		st.failed = st.ops
	}
	return st, nil
}

// recoverPrep re-attaches what the log does not carry.
func recoverPrep(k *core.Kernel) error {
	attachFullStack(k)
	return nil
}

// recoverAndCheck closes the live log, recovers the directory into a fresh
// kernel, and checks the recovered plane against the live one.
func (r *churnRunner) recoverAndCheck(s *churnSys, tr *tracer) (float64, ctrl.RecoveryStats, error) {
	if err := s.p.WAL().Close(); err != nil {
		return 0, ctrl.RecoveryStats{}, err
	}
	var p2 *ctrl.Plane
	var stats ctrl.RecoveryStats
	d, err := timeCall(tr, spanRecover, 0, func() (e error) {
		p2, stats, e = ctrl.Recover(s.dir, core.Config{Mode: core.ModeAOT}, wal.Options{NoSync: true}, recoverPrep)
		return e
	})
	if err != nil {
		return 0, stats, fmt.Errorf("bench: ctrl_churn recovery: %w", err)
	}
	defer p2.WAL().Close()
	probe := make([]int64, 0, 16)
	for key := int64(0); key < experiments.HotPathKeys; key += experiments.HotPathKeys / 16 {
		probe = append(probe, key)
	}
	if err := ctrl.VerifyEquivalence(s.p, p2, probe); err != nil {
		r.broken = err.Error()
	} else if a, b := s.p.InventoryDigest(), p2.InventoryDigest(); a != b {
		r.broken = fmt.Sprintf("inventory digest %08x live vs %08x recovered", a, b)
	}
	return float64(d) / 1e6, stats, nil
}

// restoreOnly checkpoints the recovered state and recovers it again with an
// empty log suffix, returning that recovery's wall time in ms.
func (r *churnRunner) restoreOnly(s *churnSys) (float64, error) {
	p, _, err := ctrl.Recover(s.dir, core.Config{Mode: core.ModeAOT}, wal.Options{NoSync: true}, recoverPrep)
	if err != nil {
		return 0, err
	}
	if _, err := p.Checkpoint(); err != nil {
		p.WAL().Close()
		return 0, err
	}
	if err := p.WAL().Close(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	p2, stats, err := ctrl.Recover(s.dir, core.Config{Mode: core.ModeAOT}, wal.Options{NoSync: true}, recoverPrep)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if stats.Replayed != 0 {
		p2.WAL().Close()
		return 0, fmt.Errorf("bench: restore-only recovery replayed %d records", stats.Replayed)
	}
	return float64(d) / 1e6, p2.WAL().Close()
}

func (r *churnRunner) finish(res *result, tr *tracer) {
	if r.broken != "" {
		res.Correct = false
		res.Notes = append(res.Notes, "recovered plane differs from live plane: "+r.broken)
	}
	if tr == nil {
		return
	}
	for name, v := range r.counters {
		res.setLayer(name, v.Value)
	}
	batchLayerMetrics(res, tr, churnHook, "")
	for kind, us := range r.kindUs {
		if len(us) > 0 {
			res.setLayer(mutMetric[kind], fastDecile(us, false))
		}
	}
	if len(r.ckptMs) > 0 {
		res.setLayer("ctrl.checkpoint_ms", fastDecile(r.ckptMs, false))
	}
	if v, ok := percentile(sortedCopy(r.commitUs), 0.99); ok {
		res.setLayer("ctrl.commit_us_p99", v)
	}
	res.setLayer("ctrl.generations", r.gens)
	res.setLayer("ctrl.post_commit_refill_misses", r.refill)
	res.setLayer("wal.records", r.walRecs)
	res.setLayer("wal.bytes", r.walBytes)
	if len(r.restoreMs) > 0 {
		res.setLayer("ctrl.recover_checkpoint_ms", fastDecile(r.restoreMs, false))
	}
	if len(r.replayUs) > 0 {
		res.setLayer("ctrl.recover_replay_us_per_record", fastDecile(r.replayUs, false))
	}
}
