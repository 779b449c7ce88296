package ctrl

import (
	"errors"
	"testing"

	"rmtk/internal/core"
	"rmtk/internal/ml/dt"
)

// TestLearner drives one model's learn loop on canaryRig's hook, directly and
// behind a canary, and checks when a train is counted, what the rollout state
// reports, and which pushes are skipped or refused.
func TestLearner(t *testing.T) {
	window := dt.NewOnline(dt.OnlineConfig{Tree: dt.Config{MaxDepth: 4, MinSamples: 1}, RetrainEvery: 1 << 30})
	for i, x := range [][]int64{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		window.Observe(x, []int64{10, 10, 20, 20}[i])
	}
	agree := &core.FuncModel{Fn: func([]int64) int64 { return 10 }, Feats: 2}
	trap := &core.FuncModel{Fn: func([]int64) int64 { panic("corrupt weights") }, Feats: 2}
	costly := &core.FuncModel{Fn: func([]int64) int64 { return 10 }, Feats: 2, Ops: 1000}
	gate := &CanaryConfig{MinShadowFires: 8, MaxDivergenceFrac: 1}
	for _, tc := range []struct {
		name string
		gate *CanaryConfig
		ops  int64
		// push runs against a fresh learner; its error must match wantErr.
		push    func(l *Learner) error
		wantErr error
		// staged is how many trains count right after push; fires shadow
		// fires then drive the rollout.
		staged int
		fires  int

		wantTrains int
		wantState  CanaryState
		wantEnded  int
		wantOK     bool
		wantStaged int64 // ctrl.canary_staged
	}{
		{
			name: "direct train counts a train",
			push: func(l *Learner) error { return l.Train(window) }, staged: 1,
			wantTrains: 1,
		},
		{
			name: "state before the first rollout",
			gate: gate, push: func(*Learner) error { return nil },
		},
		{
			name: "train counts at go-live, not at staging",
			gate: gate, push: func(l *Learner) error { return l.Train(window) }, fires: 8,
			wantTrains: 1, wantState: CanaryPromoted, wantEnded: 1, wantOK: true, wantStaged: 1,
		},
		{
			name: "a retrain in flight is skipped",
			gate: gate,
			push: func(l *Learner) error {
				if err := l.Push(agree); err != nil {
					return err
				}
				return l.Train(window)
			},
			wantState: CanaryShadowing, wantOK: true, wantStaged: 1,
		},
		{
			name: "a push in flight is refused",
			gate: gate,
			push: func(l *Learner) error {
				if err := l.Push(agree); err != nil {
					return err
				}
				return l.Push(agree)
			},
			wantErr:   ErrRolloutInFlight,
			wantState: CanaryShadowing, wantOK: true, wantStaged: 1,
		},
		{
			name: "a rejected candidate counts none",
			gate: gate, push: func(l *Learner) error { return l.Push(trap) }, fires: 8,
			wantState: CanaryRejected, wantEnded: 1, wantOK: true, wantStaged: 1,
		},
		{
			name: "over budget, direct",
			ops:  100, push: func(l *Learner) error { return l.Push(costly) },
			wantErr: ErrBudgetExceeded,
		},
		{
			name: "over budget, canary",
			gate: gate, ops: 100, push: func(l *Learner) error { return l.Push(costly) },
			wantErr: ErrBudgetExceeded,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, mid := canaryRig(t)
			l := p.NewLearner("mm/canary", mid, tc.ops, 0, tc.gate, nil)
			if err := tc.push(l); !errors.Is(err, tc.wantErr) {
				t.Fatalf("push err = %v, want %v", err, tc.wantErr)
			}
			if got := l.Trains(); got != tc.staged {
				t.Fatalf("trains after push = %d, want %d", got, tc.staged)
			}
			for i := 0; i < tc.fires && l.InFlight(); i++ {
				p.K.Fire("mm/canary", 1, 0, 0)
				l.Advance()
			}
			if got := l.Trains(); got != tc.wantTrains {
				t.Errorf("trains = %d, want %d", got, tc.wantTrains)
			}
			st, ended, ok := l.State()
			if st != tc.wantState || ended != tc.wantEnded || ok != tc.wantOK {
				t.Errorf("state = %v ended=%d ok=%v, want %v %d %v", st, ended, ok, tc.wantState, tc.wantEnded, tc.wantOK)
			}
			if got := p.K.Metrics.Counter("ctrl.canary_staged").Load(); got != tc.wantStaged {
				t.Errorf("canary_staged = %d, want %d", got, tc.wantStaged)
			}
		})
	}
}
