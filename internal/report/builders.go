package report

import (
	"fmt"

	"rmtk/internal/core"
	"rmtk/internal/ctrl"
	"rmtk/internal/isa"
	"rmtk/internal/rmtio"
	"rmtk/internal/rmtnet"
	"rmtk/internal/rmtprefetch"
)

// DatapathBuilder builds the standard demo corpus: a kernel with the three
// self-installing learned datapaths attached (page prefetch with one
// admitted per-process program, IO latency routing, flow classification).
// This is what `rmtkctl verify -report datapaths` reports on, and the
// closest offline stand-in for "every registered datapath".
func DatapathBuilder(mode core.ExecMode) (*core.Kernel, []Rejection, error) {
	k := core.NewKernel(core.Config{Mode: mode})
	plane := ctrl.New(k)
	pf, err := rmtprefetch.New(k, plane, rmtprefetch.Config{})
	if err != nil {
		return nil, nil, fmt.Errorf("rmtprefetch: %w", err)
	}
	// One page access admits the per-process prefetch program (programs are
	// installed lazily as processes appear).
	pf.OnAccess(1, 100, false)
	if _, err := rmtio.New(k, plane); err != nil {
		return nil, nil, fmt.Errorf("rmtio: %w", err)
	}
	if _, err := rmtnet.New(k, plane); err != nil {
		return nil, nil, fmt.Errorf("rmtnet: %w", err)
	}
	return k, nil, nil
}

// FilesBuilder reports on an explicit program set (parsed .rmt sources):
// each program is admitted into a scratch kernel with stub resources for its
// declared model and vector ids — the offline toolchain path. Admission
// failures become rejections, not build errors.
func FilesBuilder(progs []*isa.Program) Builder {
	return func(mode core.ExecMode) (*core.Kernel, []Rejection, error) {
		k := core.NewKernel(core.Config{Mode: mode})
		var rejs []Rejection
		for _, prog := range progs {
			StubResources(k, prog)
			if _, _, err := k.InstallProgram(prog); err != nil {
				rejs = append(rejs, Rejection{Name: prog.Name, Err: err.Error()})
			}
		}
		return k, rejs, nil
	}
}

// StubResources registers placeholder resources for the ids a program
// declares, so offline admission succeeds without the real datapath: models
// resolve to a zero-predicting stub, vector pools to an eight-element zero
// vector. Helpers need no stubbing (the kernel registers the standard set),
// and tables/matrices/tails are beyond what the offline toolchain fakes.
func StubResources(k *core.Kernel, prog *isa.Program) {
	for _, id := range prog.Models {
		for {
			got := k.RegisterModel(&core.FuncModel{
				Fn: func([]int64) int64 { return 0 }, Feats: 8, Ops: 1, Size: 8,
			})
			if got >= id {
				break
			}
		}
	}
	for _, id := range prog.Vecs {
		for {
			got := k.RegisterVec(make([]int64, 8))
			if got >= id {
				break
			}
		}
	}
}
