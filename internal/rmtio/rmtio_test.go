package rmtio

import (
	"testing"

	"rmtk/internal/blksim"
	"rmtk/internal/core"
	"rmtk/internal/ctrl"
)

func newRouter(t *testing.T) (*core.Kernel, *Router) {
	t.Helper()
	k := core.NewKernel(core.Config{})
	r, err := New(k, ctrl.New(k))
	if err != nil {
		t.Fatal(err)
	}
	return k, r
}

func TestInstall(t *testing.T) {
	k, _ := newRouter(t)
	if _, err := k.ProgramID("io_slow_predict"); err != nil {
		t.Fatal("prediction program missing")
	}
	if _, _, err := k.TableByName(SubmitTable); err != nil {
		t.Fatal("submit table missing")
	}
}

func TestFeatureConstruction(t *testing.T) {
	_, r := newRouter(t)
	// Before any telemetry, time features sit at the cap.
	f := r.features(0, 3, 1_000_000)
	if f[FQueueLen] != 3 || f[FUsSinceSlow] != bucketCap || f[FUsSinceAnyIO] != bucketCap {
		t.Fatalf("cold features = %v", f)
	}
	// A slow completion at t=1ms, queried at t=1.5ms: 50 buckets of 10µs.
	r.OnObserve(0, 2, 1, 1_000_000)
	f = r.features(0, 1, 1_500_000)
	if f[FUsSinceSlow] != 50 {
		t.Fatalf("since-slow = %d, want 50", f[FUsSinceSlow])
	}
	if f[FSlowInWindow] != 1 {
		t.Fatalf("slow-in-window = %d", f[FSlowInWindow])
	}
	if f[FUsSinceAnyIO] != 50 {
		t.Fatalf("since-any = %d", f[FUsSinceAnyIO])
	}
}

func TestOnObserveRing(t *testing.T) {
	_, r := newRouter(t)
	// Fill beyond the window: only the newest windowSize survive.
	for i := 0; i < windowSize+10; i++ {
		r.OnObserve(1, 1, 1, int64(i))
	}
	f := r.features(1, 0, 1_000_000)
	if f[FSlowInWindow] != windowSize {
		t.Fatalf("window slow count = %d", f[FSlowInWindow])
	}
}

// TestLearnsGCPeriod: with a perfectly periodic device, the learned router
// should route around GC episodes and beat the GC-blind baselines on p99.
func TestLearnsGCPeriod(t *testing.T) {
	devCfg := blksim.DeviceConfig{
		BaseNs: 2_000, JitterNs: 200,
		GCEveryNs: 100_000, GCJitterNs: 2_000, GCDurationNs: 20_000,
		SlowPenaltyNs: 100_000,
	}
	cfg := blksim.Config{Replicas: 3, Device: devCfg, Seed: 3}
	reqs := blksim.GenRequests(12000, 2_000, 4)

	prim := blksim.Run(cfg, blksim.PrimaryRouter{}, reqs)
	_, r := newRouter(t)
	learned := blksim.Run(cfg, r, reqs)

	if r.Trains() == 0 {
		t.Fatal("router never trained")
	}
	if learned.P99Ns >= prim.P99Ns {
		t.Fatalf("learned p99 %d >= primary p99 %d", learned.P99Ns, prim.P99Ns)
	}
	if learned.SlowServe >= prim.SlowServe {
		t.Fatalf("learned served %d slow IOs vs primary %d", learned.SlowServe, prim.SlowServe)
	}
	if learned.ExtraIOs != 0 {
		t.Fatal("learned router should not duplicate IOs")
	}
}

func TestUntrainedFallsBackToLoadBalancing(t *testing.T) {
	_, r := newRouter(t)
	devCfg := blksim.DeviceConfig{BaseNs: 100, JitterNs: 1, GCEveryNs: 1 << 40, GCDurationNs: 1, SlowPenaltyNs: 1}
	devs := []*blksim.Device{
		blksim.NewDevice(0, devCfg, 1),
		blksim.NewDevice(1, devCfg, 2),
	}
	// Load device 0.
	devs[0].Submit(0)
	devs[0].Submit(0)
	choice, hedge, _ := r.Route(100, devs)
	if choice != 1 {
		t.Fatalf("untrained route chose loaded device %d", choice)
	}
	if hedge {
		t.Fatal("learned router hedged")
	}
}
