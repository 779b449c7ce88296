// Package rmtsched wires case study #2 through the RMT stack: the
// can_migrate_task hook of the CFS simulator consults a quantized MLP that
// has been compiled to RMT bytecode (OpMatMul / OpVecRelu / OpVecQuant /
// OpVecArgMax — the dedicated ML instruction set of §3.2) and admitted
// through the verifier, whose static cost model sees the exact
// multiply-accumulate count of every layer.
package rmtsched

import (
	"fmt"

	"rmtk/internal/core"
	"rmtk/internal/ctrl"
	"rmtk/internal/ml/feature"
	"rmtk/internal/ml/mlp"
	"rmtk/internal/schedsim"
	"rmtk/internal/table"
)

// Hook and table names.
const (
	Hook         = "sched/can_migrate_task"
	MigrateTable = "can_migrate_tab"
)

// Decider routes migration decisions through the kernel: the simulator's
// feature vector is staged into a pool vector, the hook fires, the matched
// entry runs the compiled MLP program, and R0's argmax class is the verdict.
type Decider struct {
	K     *core.Kernel
	label string
	vecID int64
	cols  []int // optional lean-feature projection

	// lastFeatures is the raw feature struct staged by the in-flight
	// CanMigrate call; the registered sched/* fallback closes over it so the
	// stock CFS heuristic can decide from the same inputs when the learned
	// program is quarantined.
	lastFeatures *schedsim.Features
}

// Install compiles the quantized network to bytecode, admits it, creates the
// migrate table with a catch-all entry, and returns the kernel-routed
// decider. cols, when non-empty, projects the normalized features onto the
// selected columns first (the lean-monitoring variant).
func Install(k *core.Kernel, plane *ctrl.Plane, q *mlp.QMLP, label string, cols []int) (*Decider, error) {
	matIDs, _, err := k.RegisterQMLP(q)
	if err != nil {
		return nil, err
	}
	vecID := k.RegisterVec(make([]int64, q.Sizes[0]))

	prog := q.BuildProgram("can_migrate_"+label, Hook, vecID, matIDs[0])
	// BuildProgram assumes contiguous matrix ids starting at matIDs[0];
	// verify that holds for this kernel's allocation.
	for i, id := range matIDs {
		if id != matIDs[0]+int64(i) {
			return nil, fmt.Errorf("rmtsched: non-contiguous matrix ids %v", matIDs)
		}
	}
	progID, _, err := plane.LoadProgram(prog)
	if err != nil {
		return nil, fmt.Errorf("rmtsched: admission: %w", err)
	}

	t := table.New(MigrateTable+"_"+label, Hook, table.MatchTernary)
	if _, err := k.CreateTable(t); err != nil {
		return nil, err
	}
	// Catch-all entry: mask 0 matches every task group.
	if err := t.Insert(&table.Entry{
		Mask:   0,
		Action: table.Action{Kind: table.ActionProgram, ProgID: progID},
	}); err != nil {
		return nil, err
	}
	d := &Decider{K: k, label: label, vecID: vecID, cols: cols}

	// Baseline fallback for the sched/* hooks: the stock CFS
	// can_migrate_task heuristic, fed the raw features CanMigrate staged just
	// before firing. Fire's hook arguments cannot carry the whole feature
	// struct, so the fallback closes over the decider's staging slot.
	cfs := schedsim.CFSDecider{}
	k.RegisterFallback("sched/*", core.FallbackFunc{
		Label: cfs.Name(),
		Fn: func(string, int64, int64, int64) (int64, []int64) {
			if d.lastFeatures == nil {
				return 0, nil // no migration without evidence
			}
			if cfs.CanMigrate(d.lastFeatures) {
				return 1, nil
			}
			return 0, nil
		},
	})
	return d, nil
}

// Name implements schedsim.Decider.
func (d *Decider) Name() string { return d.label }

// CanMigrate implements schedsim.Decider.
func (d *Decider) CanMigrate(f *schedsim.Features) bool {
	x := f.Normalized()
	if len(d.cols) > 0 {
		x = feature.SelectRow(x, d.cols)
	}
	if err := d.K.SetVec(d.vecID, x); err != nil {
		return false
	}
	d.lastFeatures = f
	res := d.K.Fire(Hook, 0, 0, 0)
	d.lastFeatures = nil
	return res.Verdict == 1
}

var _ schedsim.Decider = (*Decider)(nil)
