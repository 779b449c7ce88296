package cluster

import "errors"

// Replication sentinels, exported so callers branch with errors.Is (and
// wrapped with %w everywhere — internal/lint's ctrlerrors analyzer enforces
// the discipline for this package too).
var (
	// ErrNotLeader is wrapped when a write is proposed and no live node
	// currently holds leadership (mid-election, or the leader just died).
	// Retry after ticking the cluster — ProposeRetry does exactly that.
	ErrNotLeader = errors.New("cluster: not the leader")
	// ErrPartitioned is wrapped when the only reachable replica is degraded:
	// cut off from quorum, it keeps serving its last-known-good state
	// read-only and refuses writes that could diverge from the majority.
	ErrPartitioned = errors.New("cluster: partitioned from quorum (read-only)")
	// ErrDivergedLog is wrapped when two replica logs disagree on the bytes
	// of a shared sequence number — history forked and the lagging side
	// needs a full resync.
	ErrDivergedLog = errors.New("cluster: replica logs diverged")
)
