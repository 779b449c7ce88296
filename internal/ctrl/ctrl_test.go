package ctrl

import (
	"errors"
	"math/rand"
	"testing"

	"rmtk/internal/core"
	"rmtk/internal/isa"
	"rmtk/internal/ml/mlp"
	"rmtk/internal/table"
	"rmtk/internal/verifier"
)

func newPlane(t *testing.T) *Plane {
	t.Helper()
	return New(core.NewKernel(core.Config{}))
}

func TestLoadProgramAndTables(t *testing.T) {
	p := newPlane(t)
	tb, id, err := p.CreateTable("t1", "hook/a", table.MatchExact)
	if err != nil || id == 0 || tb == nil {
		t.Fatalf("create table: %v", err)
	}
	progID, rep, err := p.LoadProgram(&isa.Program{
		Name:  "noop",
		Insns: isa.MustAssemble("movimm r0, 0\nexit"),
	})
	if err != nil || progID == 0 || rep == nil {
		t.Fatalf("load: %v", err)
	}
	if err := p.AddEntry("t1", &table.Entry{Key: 5, Action: table.Action{Kind: table.ActionParam, Param: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddEntry("missing", &table.Entry{}); err == nil {
		t.Fatal("missing table accepted")
	}
	res := p.K.Fire("hook/a", 5, 0, 0)
	if res.Verdict != 1 {
		t.Fatalf("verdict %d", res.Verdict)
	}
	// Update the action at runtime.
	if err := p.UpdateAction("t1", 5, table.Action{Kind: table.ActionParam, Param: 2}); err != nil {
		t.Fatal(err)
	}
	if res := p.K.Fire("hook/a", 5, 0, 0); res.Verdict != 2 {
		t.Fatalf("updated verdict %d", res.Verdict)
	}
	if err := p.UpdateAction("t1", 99, table.Action{}); err == nil {
		t.Fatal("missing key accepted")
	}
	// Remove the entry.
	if err := p.RemoveEntry("t1", &table.Entry{Key: 5}); err != nil {
		t.Fatal(err)
	}
	if err := p.RemoveEntry("t1", &table.Entry{Key: 5}); err == nil {
		t.Fatal("double remove accepted")
	}
	if res := p.K.Fire("hook/a", 5, 0, 0); res.Matched != 0 {
		t.Fatal("removed entry still matches")
	}
}

func TestPushModelBudgets(t *testing.T) {
	p := newPlane(t)
	id := p.K.RegisterModel(&core.FuncModel{Fn: func([]int64) int64 { return 0 }, Feats: 1, Ops: 10, Size: 100})
	big := &core.FuncModel{Fn: func([]int64) int64 { return 1 }, Feats: 1, Ops: 1000, Size: 10000}
	if err := p.PushModel(id, big, 100, 0); !errors.Is(err, verifier.ErrOpsBudget) {
		t.Fatalf("ops budget err = %v", err)
	}
	if err := p.PushModel(id, big, 0, 100); !errors.Is(err, verifier.ErrMemBudget) {
		t.Fatalf("mem budget err = %v", err)
	}
	if err := p.PushModel(id, big, 0, 0); err != nil {
		t.Fatalf("unlimited push: %v", err)
	}
	m, err := p.K.Model(id)
	if err != nil || m.Predict(nil) != 1 {
		t.Fatal("pushed model not active")
	}
}

func TestAccuracyMonitorDegradeRecover(t *testing.T) {
	var degraded, recovered []float64
	m := NewAccuracyMonitor(10, 0.6)
	m.OnDegrade = func(a float64) { degraded = append(degraded, a) }
	m.OnRecover = func(a float64) { recovered = append(recovered, a) }

	// Window 1: 90% accurate — no events.
	for i := 0; i < 10; i++ {
		m.Record(i != 0)
	}
	if len(degraded) != 0 || m.Degraded() {
		t.Fatal("spurious degrade")
	}
	// Window 2: 20% accurate — degrade fires.
	for i := 0; i < 10; i++ {
		m.Record(i < 2)
	}
	if len(degraded) != 1 || degraded[0] != 0.2 || !m.Degraded() {
		t.Fatalf("degrade = %v", degraded)
	}
	// Window 3: still bad — degrade fires again, no recover.
	for i := 0; i < 10; i++ {
		m.Record(false)
	}
	if len(degraded) != 2 || len(recovered) != 0 {
		t.Fatalf("degraded=%v recovered=%v", degraded, recovered)
	}
	// Window 4: good again — recover fires.
	for i := 0; i < 10; i++ {
		m.Record(true)
	}
	if len(recovered) != 1 || recovered[0] != 1.0 || m.Degraded() {
		t.Fatalf("recovered = %v", recovered)
	}
	if m.Degrades() != 2 {
		t.Fatalf("degrades = %d", m.Degrades())
	}
	if m.LastWindowAccuracy() != 1.0 {
		t.Fatalf("last window = %v", m.LastWindowAccuracy())
	}
	if acc := m.LifetimeAccuracy(); acc < 0.5 || acc > 0.6 {
		t.Fatalf("lifetime = %v", acc) // (9+2+0+10)/40 = 0.525
	}
}

func TestWatchAndRecordOutcome(t *testing.T) {
	p := newPlane(t)
	mon := NewAccuracyMonitor(4, 0.5)
	p.WatchModel(7, mon)
	if p.Monitor(7) != mon || p.Monitor(8) != nil {
		t.Fatal("monitor registry")
	}
	p.RecordOutcome(7, true)
	p.RecordOutcome(7, false)
	p.RecordOutcome(8, true) // unknown: ignored
	if mon.LifetimeAccuracy() != 0.5 {
		t.Fatalf("lifetime = %v", mon.LifetimeAccuracy())
	}
}

func TestTrainAndPush(t *testing.T) {
	p := newPlane(t)
	rng := rand.New(rand.NewSource(1))
	var X [][]float64
	var y []int
	for i := 0; i < 400; i++ {
		a, b := rng.Float64()*40, rng.Float64()*40
		label := 0
		if a > b {
			label = 1
		}
		X = append(X, []float64{a, b})
		y = append(y, label)
	}
	modelID, matIDs, q, err := p.TrainAndPush(X, y, TrainPushConfig{
		Hidden: []int{8},
		Train:  mlpTrain(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if modelID == 0 || len(matIDs) != 2 || q == nil {
		t.Fatalf("ids: model=%d mats=%v", modelID, matIDs)
	}
	// The registered model answers like the quantized network.
	m, err := p.K.Model(modelID)
	if err != nil {
		t.Fatal(err)
	}
	hit := 0
	for i := 0; i < 200; i++ {
		x := []int64{rng.Int63n(40), rng.Int63n(40)}
		if m.Predict(x) == int64(q.Predict(x)) {
			hit++
		}
	}
	if hit != 200 {
		t.Fatalf("registered model diverges: %d/200", hit)
	}
	// Budgets reject oversized requests.
	if _, _, _, err := p.TrainAndPush(X, y, TrainPushConfig{
		Hidden: []int{8}, Train: mlpTrain(), OpsBudget: 1,
	}); !errors.Is(err, verifier.ErrOpsBudget) {
		t.Fatalf("ops budget err = %v", err)
	}
	if _, _, _, err := p.TrainAndPush(nil, nil, TrainPushConfig{}); err == nil {
		t.Fatal("empty set accepted")
	}
}

func mlpTrain() mlp.TrainConfig {
	return mlp.TrainConfig{Epochs: 30, LR: 0.05, Seed: 2}
}

// TestLoadedProgramFoldsOnEveryTier: a program installed at runtime through
// the plane carries the verifier's facts, so its decided branch folds on the
// JIT tier, which returns the interpreter's verdict in the interpreter's
// steps.
func TestLoadedProgramFoldsOnEveryTier(t *testing.T) {
	deadarm := isa.MustAssemble(`
        movimm r4, 3
        jgti   r4, 5, +2
        movimm r0, 1
        exit
        movimm r0, 2
        exit`)
	var got []core.FireResult
	for _, mode := range []core.ExecMode{core.ModeJIT, core.ModeInterp} {
		p := New(core.NewKernel(core.Config{Mode: mode}))
		if _, _, err := p.CreateTable("t", "hook/d", table.MatchExact); err != nil {
			t.Fatal(err)
		}
		id, _, err := p.LoadProgram(&isa.Program{Name: "deadarm", Insns: deadarm})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.AddEntry("t", &table.Entry{Key: 1, Action: table.Action{Kind: table.ActionProgram, ProgID: id}}); err != nil {
			t.Fatal(err)
		}
		corpus := p.K.VerifierCorpus()
		if len(corpus) != 1 {
			t.Fatalf("corpus holds %d programs, want 1", len(corpus))
		}
		f := corpus[0].Prog.Facts
		if f == nil || len(f.Live) != len(deadarm) || len(f.Branches) != len(deadarm) {
			t.Fatalf("admitted deadarm carries facts %+v for %d instructions", f, len(deadarm))
		}
		decided := 0
		for _, b := range f.Branches {
			if b != isa.BranchBoth {
				decided++
			}
		}
		if decided != 1 || f.Branches[1] != isa.BranchNeverTaken {
			t.Fatalf("decided branches %v, want pc 1 never taken", f.Branches)
		}
		got = append(got, p.K.Fire("hook/d", 1, 0, 0))
	}
	jit, interp := got[0], got[1]
	if jit.Trapped || interp.Trapped || jit.Verdict != 1 || jit.Verdict != interp.Verdict || jit.Steps != 4 || jit.Steps != interp.Steps {
		t.Fatalf("jit (verdict %d, %d steps), interp (verdict %d, %d steps); want 1 in 4 on both",
			jit.Verdict, jit.Steps, interp.Verdict, interp.Steps)
	}
}
