package rmtio

import (
	"testing"

	"rmtk/internal/core"
	"rmtk/internal/ctrl"
)

// canaryRouter builds a router whose retrains go through the shadow canary,
// with gates small enough to exercise in a handful of events.
func canaryRouter(t *testing.T) (*core.Kernel, *Router) {
	t.Helper()
	k := core.NewKernel(core.Config{})
	cc := ctrl.AccuracyCanaryConfig()
	cc.MinShadowFires = 8
	cc.MinShadowOutcomes = 4
	r, err := New(k, ctrl.New(k), Config{Canary: &cc})
	if err != nil {
		t.Fatal(err)
	}
	return k, r
}

// driveCanary runs rounds of predict→complete where the ground truth is a
// pure function of the queue length the candidate also sees, so a candidate
// keyed on queue length labels perfectly and the placeholder incumbent
// (constant fast) does not.
func driveCanary(r *Router, rounds int) {
	for i := 0; i < rounds && r.learn.InFlight(); i++ {
		qlen := i % 8 // 0..7; slow iff > 4
		now := int64(i+1) * 1_000_000
		feats := r.features(0, qlen, now)
		r.predict(0, feats) // fires the hook; the shadow sees the same vec
		r.pending[0] = feats
		r.OnComplete(0, qlen > 4, 0)
	}
}

// TestCanaryPromotion: a candidate whose shadow verdicts match completion
// outcomes clears the accuracy gate and goes live; rollout state is
// reported and the live model is the candidate.
func TestCanaryPromotion(t *testing.T) {
	k, r := canaryRouter(t)
	good := &core.FuncModel{
		Fn: func(x []int64) int64 {
			if x[FQueueLen] > 4 {
				return 1
			}
			return 0
		},
		Feats: NumFeatures,
	}
	if err := r.learn.Push(good); err != nil {
		t.Fatalf("canary did not stage: %v", err)
	}
	if st, _, ok := r.learn.State(); !ok || st != ctrl.CanaryShadowing {
		t.Fatalf("state = %v ok=%v", st, ok)
	}
	driveCanary(r, 64)
	st, ended, ok := r.learn.State()
	if !ok || st != ctrl.CanaryPromoted || ended != 1 {
		t.Fatalf("state = %v ended=%d ok=%v", st, ended, ok)
	}
	if r.Trains() != 1 {
		t.Fatalf("trains = %d, want 1 (counted at promotion)", r.Trains())
	}
	m, err := k.Model(r.modelID)
	if err != nil {
		t.Fatal(err)
	}
	deep := make([]int64, NumFeatures)
	deep[FQueueLen] = 7
	if m.Predict(deep) != 1 {
		t.Fatal("candidate not live after promotion")
	}
	if k.ShadowAt("blk/submit_io") != nil {
		t.Fatal("shadow leaked after promotion")
	}
}

// TestCanaryTrapRejection: a panicking candidate never goes live; the
// placeholder incumbent keeps routing.
func TestCanaryTrapRejection(t *testing.T) {
	k, r := canaryRouter(t)
	incumbent, _ := k.Model(r.modelID)
	if err := r.learn.Push(&core.FuncModel{
		Fn:    func([]int64) int64 { panic("corrupt weights") },
		Feats: NumFeatures,
	}); err != nil {
		t.Fatalf("canary did not stage: %v", err)
	}
	driveCanary(r, 64)
	st, ended, ok := r.learn.State()
	if !ok || st != ctrl.CanaryRejected || ended != 1 {
		t.Fatalf("state = %v ended=%d ok=%v", st, ended, ok)
	}
	if r.Trains() != 0 {
		t.Fatalf("trains = %d, want 0", r.Trains())
	}
	if m, _ := k.Model(r.modelID); m != incumbent {
		t.Fatal("incumbent displaced by rejected candidate")
	}
}

// TestRetrainStagesCanary: with Canary configured, the periodic retrain path
// stages a rollout instead of cutting the model over directly.
func TestRetrainStagesCanary(t *testing.T) {
	k, r := canaryRouter(t)
	// Separable outcomes: queue length alone decides the label. The
	// TrainEvery-th completion retrains.
	complete := func(i int) {
		f := make([]int64, NumFeatures)
		f[FQueueLen] = int64(i % 8)
		r.pending[0] = f
		r.OnComplete(0, f[FQueueLen] > 4, 0)
	}
	r.dev(0) // install the device entry so shadow fires have a match
	for i := 0; i < r.cfg.TrainEvery; i++ {
		complete(i)
	}
	if !r.learn.InFlight() {
		t.Fatal("retrain did not stage a canary")
	}
	if r.Trains() != 0 {
		t.Fatal("retrain counted a train before promotion")
	}
	m, _ := k.Model(r.modelID)
	if m.Predict(make([]int64, NumFeatures)) != 0 {
		t.Fatal("retrain displaced the incumbent without promotion")
	}
	// A second retrain while the rollout is pending is skipped, not stacked:
	// with no shadow fires the rollout cannot leave shadowing meanwhile.
	for i := 0; i < r.cfg.TrainEvery; i++ {
		complete(i)
	}
	if got := k.Metrics.Counter("ctrl.canary_staged").Load(); got != 1 {
		t.Fatalf("canary_staged = %d, want 1", got)
	}
}
