package experiments

import (
	"rmtk/internal/core"
	"rmtk/internal/ctrl"
	"rmtk/internal/rmtprefetch"
)

// newAdaptivePrefetcher builds the kernel-routed prefetcher; freezeAfter>0
// stops retraining after that many accesses (the frozen-model baseline).
func newAdaptivePrefetcher(k *core.Kernel, plane *ctrl.Plane, freezeAfter int) (*rmtprefetch.Prefetcher, error) {
	return rmtprefetch.New(k, plane, rmtprefetch.Config{FreezeAfter: freezeAfter})
}
