// Package experiments encodes the paper's evaluation: the exact workload
// parameters, cost-model calibration and policy configurations that
// regenerate Table 1 (page prefetching) and Table 2 (CPU scheduling), plus
// the ablations listed in DESIGN.md. cmd/rmtbench and the repository's
// benchmarks both run these recipes, so EXPERIMENTS.md numbers are
// reproducible from either entry point.
package experiments

import (
	"fmt"

	"rmtk/internal/core"
	"rmtk/internal/ctrl"
	"rmtk/internal/memsim"
	"rmtk/internal/prefetch"
	"rmtk/internal/rmtprefetch"
	"rmtk/internal/workload"
)

// Table-1 cost-model calibration. The two benchmarks ran against different
// backing stores in the paper's testbed; the constants below are solved from
// the paper's JCT rows given our miss counts (see DESIGN.md "Fidelity").
const (
	videoWorkNs = 181000 // per-access compute, video resize
	videoMissNs = 270000 // demand-fault stall, video resize device

	convWorkNs = 334000 // per-access compute, matrix convolution
	convMissNs = 632000 // demand-fault stall, convolution device
)

// VideoTrace builds the Table-1 video-resize trace.
func VideoTrace(seed int64) []memsim.Access {
	return workload.VideoResize(workload.VideoResizeConfig{
		TraceConfig: workload.TraceConfig{
			Seed: seed, PID: 56, WorkNs: videoWorkNs, WorkJitter: -1, NoiseFrac: -1,
		},
		RowJitter: -1,
	})
}

// ConvTrace builds the Table-1 matrix-convolution trace.
func ConvTrace(seed int64) []memsim.Access {
	return workload.MatrixConv(workload.MatrixConvConfig{
		TraceConfig: workload.TraceConfig{
			Seed: seed + 1, PID: 57, WorkNs: convWorkNs, WorkJitter: -1, NoiseFrac: -1,
		},
	})
}

// VideoMemConfig is the memory-subsystem cost model for the video benchmark.
func VideoMemConfig() memsim.Config {
	return memsim.Config{CacheSlots: 1024, MissNs: videoMissNs}
}

// ConvMemConfig is the memory-subsystem cost model for the conv benchmark.
func ConvMemConfig() memsim.Config {
	return memsim.Config{CacheSlots: 1024, MissNs: convMissNs}
}

// Table1Row is one (workload, policy) cell group of Table 1, with the
// paper's reported numbers alongside for EXPERIMENTS.md.
type Table1Row struct {
	Workload string
	Policy   string

	Accuracy   float64 // percent
	Coverage   float64 // percent
	JCTSeconds float64

	PaperAccuracy float64
	PaperCoverage float64
	PaperJCT      float64
}

func (r Table1Row) String() string {
	return fmt.Sprintf("%-6s %-16s acc=%6.2f%% (paper %5.2f)  cov=%6.2f%% (paper %5.2f)  jct=%6.2fs (paper %5.2f)",
		r.Workload, r.Policy, r.Accuracy, r.PaperAccuracy, r.Coverage, r.PaperCoverage, r.JCTSeconds, r.PaperJCT)
}

// paper's Table 1 values, row order Linux, Leap, Ours.
var paperTable1 = map[string][3][3]float64{
	// {accuracy, coverage, jct} per policy
	"video": {{40.69, 65.09, 24.60}, {45.40, 66.81, 23.02}, {78.89, 84.13, 17.79}},
	"conv":  {{12.50, 19.28, 31.74}, {48.86, 65.62, 17.48}, {92.91, 88.51, 13.90}},
}

// NewRMTPrefetcher builds a fresh kernel + control plane + RMT datapaths and
// returns the kernel-routed prefetcher ("Ours"). Exposed so benchmarks can
// run the full stack in either execution mode.
func NewRMTPrefetcher(mode core.ExecMode) (*rmtprefetch.Prefetcher, *core.Kernel, error) {
	return newRMTPrefetcher(core.Config{CtxHistory: 4096, Mode: mode})
}

// newRMTPrefetcher builds the Figure-1 prefetcher on a kernel of its own
// configuration.
func newRMTPrefetcher(cfg core.Config) (*rmtprefetch.Prefetcher, *core.Kernel, error) {
	k := core.NewKernel(cfg)
	plane := ctrl.New(k)
	p, err := rmtprefetch.New(k, plane, rmtprefetch.Config{})
	if err != nil {
		return nil, nil, err
	}
	return p, k, nil
}

// Table1Policies returns the three policies of Table 1 in paper order. Each
// call builds fresh policy state.
func Table1Policies(mode core.ExecMode) ([]memsim.Prefetcher, error) {
	rmt, _, err := NewRMTPrefetcher(mode)
	if err != nil {
		return nil, err
	}
	return []memsim.Prefetcher{
		prefetch.NewReadahead(),
		prefetch.NewLeap(),
		rmt,
	}, nil
}

// Table1 runs both workloads under all three policies and returns the rows
// in paper order (video then conv; Linux, Leap, Ours).
func Table1(seed int64, mode core.ExecMode) ([]Table1Row, error) {
	var rows []Table1Row
	cases := []struct {
		name  string
		trace []memsim.Access
		cfg   memsim.Config
	}{
		{"video", VideoTrace(seed), VideoMemConfig()},
		{"conv", ConvTrace(seed), ConvMemConfig()},
	}
	for _, c := range cases {
		policies, err := Table1Policies(mode)
		if err != nil {
			return nil, err
		}
		for pi, pol := range policies {
			res := memsim.Run(c.cfg, pol, c.trace)
			paper := paperTable1[c.name][pi]
			rows = append(rows, Table1Row{
				Workload:      c.name,
				Policy:        pol.Name(),
				Accuracy:      100 * res.Accuracy(),
				Coverage:      100 * res.Coverage(),
				JCTSeconds:    res.CompletionSeconds(),
				PaperAccuracy: paper[0],
				PaperCoverage: paper[1],
				PaperJCT:      paper[2],
			})
		}
	}
	return rows, nil
}
