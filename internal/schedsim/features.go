// Package schedsim simulates the multi-CPU CFS-style scheduler of case study
// #2: per-CPU vruntime runqueues, periodic and new-idle load balancing, and a
// pluggable can_migrate_task decision point — the hook the paper instruments
// in kernel/sched/fair.c to "query the ML model to predict whether or not a
// task should be migrated".
//
// The baseline decider reproduces the CFS heuristics (cache hotness, load
// imbalance, queue inversion, migration cooldown); it is also the label
// source for training the MLP that mimics it, exactly as in Chen et al.
// (APSys '20), which the paper's case study replicates.
package schedsim

import "fmt"

// NumFeatures is the width of the can_migrate_task feature vector (the 15
// features of Chen et al. that the paper's full-featured MLP consumes).
const NumFeatures = 15

// Feature indices, usable with Features.Vector and feature selection.
const (
	FSrcLoad            = iota // total weight on the source CPU
	FDstLoad                   // total weight on the destination CPU
	FImbalance                 // SrcLoad - DstLoad
	FTaskWeight                // candidate task's load weight
	FCacheHot                  // 1 if the task ran on src recently
	FTicksSinceRan             // ticks since the task last ran
	FTicksSinceMigrated        // ticks since the task last migrated
	FSrcNrRunning              // runnable count on src
	FDstNrRunning              // runnable count on dst
	FTaskRemaining             // candidate's remaining work (ticks)
	FTaskTotalRun              // candidate's accumulated runtime
	FTaskWaitTime              // ticks the candidate has been waiting
	FMigrations                // candidate's lifetime migration count
	FSleepAvg                  // average sleep length (IO-boundness)
	FPreferredCPU              // 1 if dst matches the task's preferred CPU
)

// FeatureNames maps indices to diagnostic names.
var FeatureNames = [NumFeatures]string{
	"src_load", "dst_load", "imbalance", "task_weight", "cache_hot",
	"ticks_since_ran", "ticks_since_migrated", "src_nr_running",
	"dst_nr_running", "task_remaining", "task_total_run", "task_wait_time",
	"migrations", "sleep_avg", "preferred_cpu",
}

// Features is one can_migrate_task decision context.
type Features struct {
	V [NumFeatures]int64
}

// String renders the features for diagnostics.
func (f *Features) String() string {
	s := ""
	for i, name := range FeatureNames {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", name, f.V[i])
	}
	return s
}

// Decider is the pluggable can_migrate_task policy.
type Decider interface {
	// Name identifies the policy in reports.
	Name() string
	// CanMigrate reports whether the candidate task should move from the
	// busiest CPU to the balancing CPU.
	CanMigrate(f *Features) bool
}

// CFS heuristic thresholds (ticks / weight units).
const (
	cfsCacheHotTicks   = 4   // a task is cache-hot if it ran on src this recently
	cfsMigrateCooldown = 8   // minimum ticks between migrations of one task
	cfsMinImbalance    = 512 // below this load gap, balancing is not worth it
)

// CFSDecider reproduces the Linux can_migrate_task heuristics: refuse
// cache-hot tasks unless the imbalance is severe, refuse tasks in their
// migration cooldown, never invert the queue lengths, and skip degenerate
// imbalances.
type CFSDecider struct{}

// Name implements Decider.
func (CFSDecider) Name() string { return "cfs-heuristic" }

// CanMigrate implements Decider.
func (CFSDecider) CanMigrate(f *Features) bool {
	imb := f.V[FImbalance]
	if imb < cfsMinImbalance {
		return false
	}
	// Moving the task must not invert the imbalance.
	if 2*f.V[FTaskWeight] > imb {
		return false
	}
	// Don't make the destination queue longer than the source.
	if f.V[FDstNrRunning]+1 > f.V[FSrcNrRunning] {
		return false
	}
	// Cache-hot tasks stay put unless the imbalance is severe.
	if f.V[FCacheHot] == 1 && imb < 4*cfsMinImbalance {
		return false
	}
	// Rate-limit per-task migrations.
	if f.V[FTicksSinceMigrated] < cfsMigrateCooldown {
		return false
	}
	return true
}

var _ Decider = CFSDecider{}

// AlwaysDecider migrates everything (ablation lower bound on locality).
type AlwaysDecider struct{}

// Name implements Decider.
func (AlwaysDecider) Name() string { return "always-migrate" }

// CanMigrate implements Decider.
func (AlwaysDecider) CanMigrate(*Features) bool { return true }

// NeverDecider refuses everything (ablation lower bound on balance).
type NeverDecider struct{}

// Name implements Decider.
func (NeverDecider) Name() string { return "never-migrate" }

// CanMigrate implements Decider.
func (NeverDecider) CanMigrate(*Features) bool { return false }

// Feature normalization. Raw features span wildly different ranges (loads in
// the tens of thousands, booleans, never-ran sentinels of 1<<20), which
// cripples MLP training and quantization. Normalize maps each feature into a
// small integer range using shifts and clamps only — operations the RMT
// data-collection program performs in-kernel before handing the vector to
// the model.

// normSpec describes one feature's normalization: a right shift then a clamp.
type normSpec struct {
	shift uint
	clamp int64
}

var normSpecs = [NumFeatures]normSpec{
	FSrcLoad:            {10, 64},
	FDstLoad:            {10, 64},
	FImbalance:          {8, 64},
	FTaskWeight:         {8, 16},
	FCacheHot:           {0, 1},
	FTicksSinceRan:      {3, 64},
	FTicksSinceMigrated: {1, 64},
	FSrcNrRunning:       {0, 32},
	FDstNrRunning:       {0, 32},
	FTaskRemaining:      {8, 64},
	FTaskTotalRun:       {8, 64},
	FTaskWaitTime:       {3, 64},
	FMigrations:         {0, 32},
	FSleepAvg:           {1, 32},
	FPreferredCPU:       {0, 1},
}

// NormalizeFeature maps one raw feature value into its model range.
func NormalizeFeature(idx int, v int64) int64 {
	sp := normSpecs[idx]
	neg := v < 0
	if neg {
		v = -v
	}
	v >>= sp.shift
	if v > sp.clamp {
		v = sp.clamp
	}
	if neg {
		v = -v
	}
	return v
}

// NormalizeRow maps a raw feature vector into a fresh normalized vector.
func NormalizeRow(x []int64) []int64 {
	out := make([]int64, len(x))
	for i, v := range x {
		if i < NumFeatures {
			out[i] = NormalizeFeature(i, v)
		} else {
			out[i] = v
		}
	}
	return out
}

// Normalized returns the normalized copy of the features (what ML deciders
// consume).
func (f *Features) Normalized() []int64 { return NormalizeRow(f.V[:]) }
