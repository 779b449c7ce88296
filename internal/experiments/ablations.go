package experiments

import (
	"fmt"
	"math"

	"rmtk/internal/core"
	"rmtk/internal/ctrl"
	"rmtk/internal/dp"
	"rmtk/internal/memsim"
	"rmtk/internal/workload"
)

// AdaptationResult is the outcome of Ablation D (online vs frozen learning
// under a workload shift): the same process switches from the video-resize
// pattern to the convolution pattern mid-run.
type AdaptationResult struct {
	// OnlineAccuracy / FrozenAccuracy are end-to-end prefetch accuracies
	// (percent) with continuous retraining vs a model frozen after the
	// first phase.
	OnlineAccuracy float64
	FrozenAccuracy float64
	// OnlineCoverage / FrozenCoverage are the corresponding coverages.
	OnlineCoverage float64
	FrozenCoverage float64
	// OnlineTrains is how many model pushes the online pipeline performed.
	OnlineTrains int
	// MonitorDegrades is how many windows the control-plane accuracy
	// monitor flagged (it should fire around the pattern shift).
	MonitorDegrades int
}

func (r AdaptationResult) String() string {
	return fmt.Sprintf("online acc=%.2f%% cov=%.2f%% (trains=%d, degrades=%d) vs frozen acc=%.2f%% cov=%.2f%%",
		r.OnlineAccuracy, r.OnlineCoverage, r.OnlineTrains, r.MonitorDegrades,
		r.FrozenAccuracy, r.FrozenCoverage)
}

// shiftTrace builds the pattern-shift workload: video resize, then matrix
// convolution, same PID so the model must relearn. It also reports the
// length of the first phase (the freeze point for the frozen baseline).
func shiftTrace(seed int64) (trace []memsim.Access, firstPhase int) {
	video := workload.VideoResize(workload.VideoResizeConfig{
		TraceConfig: workload.TraceConfig{Seed: seed, PID: 90, WorkNs: videoWorkNs, WorkJitter: -1, NoiseFrac: -1},
		RowJitter:   -1,
		Frames:      120,
	})
	conv := workload.MatrixConv(workload.MatrixConvConfig{
		TraceConfig: workload.TraceConfig{Seed: seed + 1, PID: 90, WorkNs: videoWorkNs, WorkJitter: -1, NoiseFrac: -1},
		Windows:     2400,
	})
	return workload.PatternShift(video, conv), len(video)
}

// OnlineAdaptation runs Ablation D.
func OnlineAdaptation(seed int64) (AdaptationResult, error) {
	trace, firstPhase := shiftTrace(seed)
	memCfg := VideoMemConfig()

	run := func(freezeAfter int) (memsim.Result, int, int, error) {
		k := core.NewKernel(core.Config{CtxHistory: 4096})
		plane := ctrl.New(k)
		p, err := newAdaptivePrefetcher(k, plane, freezeAfter)
		if err != nil {
			return memsim.Result{}, 0, 0, err
		}
		mon := ctrl.NewAccuracyMonitor(512, 0.5)
		cfg := memCfg
		cfg.OutcomeFn = func(pid, page int64, used bool) {
			mon.Record(used)
		}
		res := memsim.Run(cfg, p, trace)
		return res, p.Trains(90), mon.Degrades(), nil
	}

	online, trains, degrades, err := run(0)
	if err != nil {
		return AdaptationResult{}, err
	}
	// Frozen: trained on the first phase only, never retrained after the
	// workload shifts.
	frozen, _, _, err := run(firstPhase)
	if err != nil {
		return AdaptationResult{}, err
	}
	return AdaptationResult{
		OnlineAccuracy:  100 * online.Accuracy(),
		FrozenAccuracy:  100 * frozen.Accuracy(),
		OnlineCoverage:  100 * online.Coverage(),
		FrozenCoverage:  100 * frozen.Coverage(),
		OnlineTrains:    trains,
		MonitorDegrades: degrades,
	}, nil
}

// DPPoint is one epsilon setting of Ablation E: the observed mean absolute
// noise of counting queries under the Laplace mechanism, and how many
// queries a fixed budget admits.
type DPPoint struct {
	Epsilon       float64
	MeanAbsError  float64
	QueriesBefore int // queries answered before a 10.0 budget ran out
}

func (p DPPoint) String() string {
	return fmt.Sprintf("eps=%.2f meanAbsErr=%.2f queriesPerBudget10=%d", p.Epsilon, p.MeanAbsError, p.QueriesBefore)
}

// DPSweep runs Ablation E: per-query epsilon versus answer error and budget
// longevity, using the kernel's noised aggregate helper path.
func DPSweep(seed int64) ([]DPPoint, error) {
	var out []DPPoint
	for _, eps := range []float64{0.05, 0.1, 0.5, 1.0, 2.0} {
		acct, err := dp.NewAccountant(10.0, seed)
		if err != nil {
			return nil, err
		}
		const truth = 1000
		var absErr float64
		n := 0
		for {
			v, err := acct.QueryCount(truth, eps)
			if err != nil {
				break
			}
			absErr += math.Abs(v - truth)
			n++
		}
		if n == 0 {
			continue
		}
		out = append(out, DPPoint{Epsilon: eps, MeanAbsError: absErr / float64(n), QueriesBefore: n})
	}
	return out, nil
}
