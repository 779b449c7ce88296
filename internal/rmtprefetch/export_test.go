package rmtprefetch

import (
	"fmt"

	"rmtk/internal/table"
)

// The degree reconfiguration TestDepthParameterControlsRollout drives.

// SetDepth reconfigures a process's prefetch degree at runtime by updating
// its table entry's parameter — the control plane's "more conservative in
// prefetching" move when accuracy degrades.
func (p *Prefetcher) SetDepth(pid int64, depth int) error {
	pr, ok := p.procs[pid]
	if !ok {
		return fmt.Errorf("rmtprefetch: unknown pid %d", pid)
	}
	return p.Plane.UpdateAction(PrefetchTable, uint64(pid), table.Action{
		Kind: table.ActionProgram, ProgID: pr.progID, Param: int64(depth),
	})
}
