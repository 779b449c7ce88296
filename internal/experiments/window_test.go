package experiments

import (
	"slices"
	"testing"

	"rmtk/internal/core"
	"rmtk/internal/fault"
	"rmtk/internal/memsim"
	"rmtk/internal/ml/dt"
	"rmtk/internal/rmtprefetch"
)

// This file checks rmtprefetch's incremental training windows against
// training from scratch. At every retrain step of a Table-1 run, and of the
// chaos experiment's runs under its fault storm, the process's window must
// hold exactly the rows over its delta history, oldest first, and the tree
// the window fits must be the tree dt.Train grows on those rows.

// prefetchTrainEvery and prefetchTree are rmtprefetch's defaults, which the
// experiments use.
const prefetchTrainEvery = 512

var prefetchTree = dt.Config{MaxDepth: 12, MinSamples: 2, MaxThresholds: 48}

// windowCheck wraps a prefetcher and checks its window after every access
// that was a retrain step.
type windowCheck struct {
	*rmtprefetch.Prefetcher
	t        *testing.T
	k        *core.Kernel
	accesses map[int64]int
	fits     int // retrain steps whose window had a tree to fit
}

func newWindowCheck(t *testing.T, p *rmtprefetch.Prefetcher, k *core.Kernel) *windowCheck {
	return &windowCheck{Prefetcher: p, t: t, k: k, accesses: make(map[int64]int)}
}

func (c *windowCheck) OnAccess(pid, page int64, hit bool) []int64 {
	out := c.Prefetcher.OnAccess(pid, page, hit)
	if c.accesses[pid]++; c.accesses[pid]%prefetchTrainEvery == 0 {
		c.check(pid)
	}
	return out
}

func (c *windowCheck) check(pid int64) {
	t := c.t
	t.Helper()
	const width = 8 // rmtprefetch's default Hist
	hist := make([]int64, c.k.Ctx().HistCap())
	hist = hist[:c.k.Ctx().Hist(pid, hist)]
	var X [][]int64
	var y []int64
	for j := 0; j+width < len(hist); j++ {
		X, y = append(X, hist[j:j+width]), append(y, hist[j+width])
	}
	win := c.Window(pid)
	gotX, gotY := win.Window()
	if !slices.EqualFunc(gotX, X, slices.Equal[[]int64]) || !slices.Equal(gotY, y) {
		t.Fatalf("pid %d, access %d: window holds %d rows, the history %d, or they differ",
			pid, c.accesses[pid], len(gotX), len(X))
	}
	if len(X) < 2 {
		return
	}
	got, err := win.Fit()
	if err != nil {
		t.Fatal(err)
	}
	want, err := dt.Train(X, y, prefetchTree)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Nodes, want.Nodes) || !slices.Equal(got.Importance(), want.Importance()) {
		t.Fatalf("pid %d, access %d: the window's tree (%d nodes) is not dt.Train's (%d nodes)",
			pid, c.accesses[pid], got.Size(), want.Size())
	}
	c.fits++
}

func TestTable1WindowMatchesTrain(t *testing.T) {
	if testing.Short() {
		t.Skip("four full rmt-ml runs")
	}
	for _, seed := range []int64{1, 2} {
		for _, c := range []struct {
			name  string
			trace []memsim.Access
			cfg   memsim.Config
		}{
			{"video", VideoTrace(seed), VideoMemConfig()},
			{"conv", ConvTrace(seed), ConvMemConfig()},
		} {
			p, k, err := NewRMTPrefetcher(core.ModeJIT)
			if err != nil {
				t.Fatal(err)
			}
			wc := newWindowCheck(t, p, k)
			memsim.Run(c.cfg, wc, c.trace)
			if want := len(c.trace)/prefetchTrainEvery - 1; wc.fits < want {
				t.Errorf("seed %d %s: %d retrain steps checked, want %d", seed, c.name, wc.fits, want)
			}
		}
	}
}

// TestChaosWindowMatchesTrain runs the chaos experiment's contained and
// uncontained arms: trapped collect fires push nothing, so the history and
// the push count the window is folded by must still agree.
func TestChaosWindowMatchesTrain(t *testing.T) {
	if testing.Short() {
		t.Skip("two full rmt-ml runs")
	}
	const seed = 1
	trace := VideoTrace(seed)
	for _, supervised := range []bool{true, false} {
		p, k, err := newRMTPrefetcher(core.Config{CtxHistory: 4096, Mode: core.ModeJIT, Quarantine: chaosQuarantine})
		if err != nil {
			t.Fatal(err)
		}
		if supervised {
			k.Supervise(chaosSupervisorConfig(seed))
		}
		inj := fault.NewInjector(seed, chaosRules(int64(len(trace)))...)
		k.SetFaultInjector(inj)
		wc := newWindowCheck(t, p, k)
		memsim.Run(VideoMemConfig(), wc, trace)
		if wc.fits < len(trace)/prefetchTrainEvery-1 || inj.Injected(fault.KindVMTrap) == 0 {
			t.Errorf("supervised=%v: %d retrain steps checked, %d traps injected",
				supervised, wc.fits, inj.Injected(fault.KindVMTrap))
		}
	}
}
