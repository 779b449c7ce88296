package ctrl

import (
	"errors"
	"strings"
	"testing"

	"rmtk/internal/core"
	"rmtk/internal/isa"
	"rmtk/internal/table"
	"rmtk/internal/verifier"
)

// canaryRig wires an ActionInfer entry on hook "mm/canary" backed by an
// incumbent model predicting 10, with two history samples so inference has
// features.
func canaryRig(t *testing.T) (*Plane, int64) {
	t.Helper()
	p := newPlane(t)
	mid := p.K.RegisterModel(&core.FuncModel{Fn: func([]int64) int64 { return 10 }, Feats: 2})
	if _, _, err := p.CreateTable("canary_tab", "mm/canary", table.MatchExact); err != nil {
		t.Fatal(err)
	}
	if err := p.AddEntry("canary_tab", &table.Entry{Key: 1, Action: table.Action{Kind: table.ActionInfer, ModelID: mid}}); err != nil {
		t.Fatal(err)
	}
	p.K.Ctx().HistPush(1, 3)
	p.K.Ctx().HistPush(1, 4)
	return p, mid
}

func drive(p *Plane, c *Canary, hook string, fires int) CanaryState {
	st := c.State()
	for i := 0; i < fires; i++ {
		p.K.Fire(hook, 1, 0, 0)
		st = c.Advance()
		if st.Terminal() {
			break
		}
	}
	return st
}

// TestCanaryPromotion: an agreeing candidate clears the gates and ends up
// live.
func TestCanaryPromotion(t *testing.T) {
	p, mid := canaryRig(t)
	candidate := &core.FuncModel{Fn: func([]int64) int64 { return 10 }, Feats: 2}
	c, err := p.PushModelCanary("mm/canary", mid, candidate, 0, 0, CanaryConfig{
		MinShadowFires: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := drive(p, c, "mm/canary", 8); st != CanaryPromoted {
		t.Fatalf("after shadow fires state = %v (gate err %v)", st, c.GateErr())
	}
	if p.K.DetachShadow("mm/canary") != nil {
		t.Fatal("shadow still attached after promotion")
	}
	m, _ := p.K.Model(mid)
	if m != core.Model(candidate) {
		t.Fatal("candidate not live after promotion")
	}
	if got := p.K.Metrics.Counter("ctrl.canary_promotions").Load(); got != 1 {
		t.Fatalf("canary_promotions = %d", got)
	}
	if p.Version() != 1 {
		t.Fatalf("version = %d", p.Version())
	}
}

// TestCanaryTrapGate: a panicking candidate is rejected without ever going
// live.
func TestCanaryTrapGate(t *testing.T) {
	p, mid := canaryRig(t)
	incumbent, _ := p.K.Model(mid)
	c, err := p.PushModelCanary("mm/canary", mid,
		&core.FuncModel{Fn: func([]int64) int64 { panic("corrupt weights") }, Feats: 2},
		0, 0, CanaryConfig{MinShadowFires: 8})
	if err != nil {
		t.Fatal(err)
	}
	if st := drive(p, c, "mm/canary", 8); st != CanaryRejected {
		t.Fatalf("state = %v", st)
	}
	if c.GateErr() == nil || !strings.Contains(c.GateErr().Error(), "trap rate") {
		t.Fatalf("gate err = %v", c.GateErr())
	}
	if m, _ := p.K.Model(mid); m != incumbent {
		t.Fatal("incumbent displaced by rejected candidate")
	}
	if p.K.DetachShadow("mm/canary") != nil {
		t.Fatal("shadow leaked after rejection")
	}
	if got := p.K.Metrics.Counter("ctrl.canary_rejections").Load(); got != 1 {
		t.Fatalf("canary_rejections = %d", got)
	}
}

// TestCanaryDivergenceGate: with the strict zero ceiling, a candidate whose
// verdicts differ is rejected.
func TestCanaryDivergenceGate(t *testing.T) {
	p, mid := canaryRig(t)
	c, err := p.PushModelCanary("mm/canary", mid,
		&core.FuncModel{Fn: func([]int64) int64 { return 99 }, Feats: 2},
		0, 0, CanaryConfig{MinShadowFires: 8})
	if err != nil {
		t.Fatal(err)
	}
	if st := drive(p, c, "mm/canary", 8); st != CanaryRejected {
		t.Fatalf("state = %v", st)
	}
	if c.GateErr() == nil || !strings.Contains(c.GateErr().Error(), "divergence") {
		t.Fatalf("gate err = %v", c.GateErr())
	}
}

// TestCanaryAccuracyGate: with divergence disabled, labeled shadow outcomes
// decide — poor labels reject, good labels promote.
func TestCanaryAccuracyGate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		correct bool
		want    CanaryState
	}{
		{"poor labels reject", false, CanaryRejected},
		{"good labels promote", true, CanaryPromoted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, mid := canaryRig(t)
			c, err := p.PushModelCanary("mm/canary", mid,
				&core.FuncModel{Fn: func([]int64) int64 { return 99 }, Feats: 2},
				0, 0, CanaryConfig{
					MinShadowFires:    8,
					MaxDivergenceFrac: 1, // candidate is supposed to differ
					MinShadowAccuracy: 0.8,
					MinShadowOutcomes: 8,
				})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 16 && !c.State().Terminal(); i++ {
				p.K.Fire("mm/canary", 1, 0, 0)
				c.RecordShadowOutcome(tc.correct)
				c.Advance()
			}
			if st := c.State(); st != tc.want {
				t.Fatalf("state = %v, want %v (gate err %v)", st, tc.want, c.GateErr())
			}
		})
	}
}

// TestCanaryBudgetRejection: budget-violating candidates are refused at
// staging with the ErrBudgetExceeded classification.
func TestCanaryBudgetRejection(t *testing.T) {
	p, mid := canaryRig(t)
	_, err := p.PushModelCanary("mm/canary", mid,
		&core.FuncModel{Fn: func([]int64) int64 { return 1 }, Feats: 2, Ops: 1000},
		100, 0, CanaryConfig{})
	if !errors.Is(err, ErrBudgetExceeded) || !errors.Is(err, verifier.ErrOpsBudget) {
		t.Fatalf("err = %v", err)
	}
	if p.K.DetachShadow("mm/canary") != nil {
		t.Fatal("shadow attached for rejected staging")
	}
}

// TestProgramCanary: a program rollout on one plane, as the fleet controller
// runs it on each node. The candidate program is staged gate-only; when its
// gates pass, the controller retargets the routing entry in a transaction,
// and when they fail it releases the canary and the incumbent keeps
// deciding. Either way a second rollout is refused while one is in flight,
// the shadow is detached once the rollout ends, and the hook then stages a
// follow-up cleanly.
func TestProgramCanary(t *testing.T) {
	for _, tc := range []struct {
		name        string
		maxDiverge  float64
		wantPass    bool
		wantVerdict int64
	}{
		// The candidate deliberately decides differently under an open gate.
		{"promoted", 1, true, 2},
		// The same candidate diverges on every fire under a strict gate.
		{"rejected on divergence", 0, false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPlane(t)
			inc, _, err := p.LoadProgram(&isa.Program{
				Name: "inc", Insns: isa.MustAssemble("movimm r0, 1\nexit"),
			})
			if err != nil {
				t.Fatal(err)
			}
			cand, _, err := p.LoadProgram(&isa.Program{
				Name: "cand", Insns: isa.MustAssemble("movimm r0, 2\nexit"),
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := p.CreateTable("prog_tab", "sched/canary", table.MatchExact); err != nil {
				t.Fatal(err)
			}
			if err := p.AddEntry("prog_tab", &table.Entry{Key: 7, Action: table.Action{Kind: table.ActionProgram, ProgID: inc}}); err != nil {
				t.Fatal(err)
			}
			cfg := CanaryConfig{MinShadowFires: 8, MaxDivergenceFrac: tc.maxDiverge}
			c, err := p.StageProgramGate("sched/canary", cand, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.StageProgramGate("sched/canary", cand, cfg); err == nil {
				t.Fatal("a second rollout staged while one is in flight")
			}
			for i := 0; i < 8; i++ {
				p.K.Fire("sched/canary", 7, 0, 0)
			}
			pass, pending, reason := c.EvalGates()
			if pending || pass != tc.wantPass {
				t.Fatalf("EvalGates = (%v, %v, %v), want pass=%v", pass, pending, reason, tc.wantPass)
			}
			if !pass && (reason == nil || !strings.Contains(reason.Error(), "divergence")) {
				t.Fatalf("gate err = %v", reason)
			}
			c.Release()
			if pass {
				txn := p.Begin()
				txn.UpdateAction("prog_tab", 7, table.Action{Kind: table.ActionProgram, ProgID: cand})
				if err := txn.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			if res := p.K.Fire("sched/canary", 7, 0, 0); res.Verdict != tc.wantVerdict {
				t.Fatalf("verdict after the rollout = %d, want %d", res.Verdict, tc.wantVerdict)
			}
			if p.K.DetachShadow("sched/canary") != nil {
				t.Fatal("shadow leaked after the rollout ended")
			}
			if _, err := p.StageProgramGate("sched/canary", cand, cfg); err != nil {
				t.Fatalf("follow-up rollout: %v", err)
			}
		})
	}
}
