package rmtnet

import (
	"testing"

	"rmtk/internal/core"
	"rmtk/internal/ctrl"
	"rmtk/internal/netsim"
)

func newClassifier(t *testing.T) (*core.Kernel, *Classifier) {
	t.Helper()
	k := core.NewKernel(core.Config{})
	c, err := New(k, ctrl.New(k))
	if err != nil {
		t.Fatal(err)
	}
	return k, c
}

func TestInstall(t *testing.T) {
	k, _ := newClassifier(t)
	if _, err := k.ProgramID("flow_classify"); err != nil {
		t.Fatal("classify program missing")
	}
	if _, _, err := k.TableByName(ClassifyTable); err != nil {
		t.Fatal("classify table missing")
	}
}

func TestColdStartRoutesToLatency(t *testing.T) {
	_, c := newClassifier(t)
	q := c.Classify(&netsim.FlowInfo{FlowID: 1, PortClass: 1, FirstLen: 1400, InitWin: 100})
	if q != netsim.QueueLatency {
		t.Fatalf("untrained classifier routed to %d", q)
	}
}

func TestLearnsFromLabels(t *testing.T) {
	_, c := newClassifier(t)
	// Feed labelled completions: bulk-port flows are elephants.
	for i := 0; i < 200; i++ {
		elephant := i%4 == 0
		info := &netsim.FlowInfo{FlowID: int64(i), PortClass: 0, FirstLen: 200, InitWin: 16}
		total := int64(4_000)
		if elephant {
			info.PortClass = 1
			info.FirstLen = 1300
			info.InitWin = 96
			total = 400_000
		}
		c.OnFlowDone(info, total)
	}
	if c.Trains() == 0 {
		t.Fatal("never trained")
	}
	if q := c.Classify(&netsim.FlowInfo{PortClass: 1, FirstLen: 1350, InitWin: 100}); q != netsim.QueueBulk {
		t.Fatal("trained classifier missed an obvious elephant")
	}
	if q := c.Classify(&netsim.FlowInfo{PortClass: 0, FirstLen: 150, InitWin: 12}); q != netsim.QueueLatency {
		t.Fatal("trained classifier demoted an obvious mouse")
	}
}

// TestEndToEndBeatsReactive: after warmup, first-packet isolation must beat
// the reactive threshold heuristic on mice tail latency and approach the
// oracle.
func TestEndToEndBeatsReactive(t *testing.T) {
	wcfg := netsim.WorkloadConfig{Seed: 6, Flows: 1200}
	w := netsim.GenWorkload(wcfg)
	reactive := netsim.Run(netsim.Config{}, netsim.ReactiveThreshold{}, w)
	oracle := netsim.Run(netsim.Config{}, netsim.Oracle{}, w)
	_, c := newClassifier(t)
	learned := netsim.Run(netsim.Config{}, c, w)

	if c.Trains() == 0 {
		t.Fatal("classifier never trained during the run")
	}
	if learned.MiceP99Ns >= reactive.MiceP99Ns {
		t.Fatalf("learned p99 %d >= reactive %d", learned.MiceP99Ns, reactive.MiceP99Ns)
	}
	// Within a reasonable factor of the oracle.
	if learned.MiceP99Ns > 3*oracle.MiceP99Ns {
		t.Fatalf("learned p99 %d far from oracle %d", learned.MiceP99Ns, oracle.MiceP99Ns)
	}
	// First-packet isolation never reclassifies mid-flow.
	if learned.Reclassified != 0 {
		t.Fatalf("learned reclassified %d flows", learned.Reclassified)
	}
}
