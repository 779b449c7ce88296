package ctrl

import (
	"fmt"

	"rmtk/internal/wal"
)

// This file is the plane-side half of control-plane replication
// (internal/cluster owns the fleet protocol). A leader's plane stamps every
// appended record with its epoch; followers receive those records verbatim
// over log shipping and apply them here — append to the local log with the
// leader-assigned sequence number (wal.AppendReplica), then apply through the
// same apply the leader's mutator ran, so a follower's state is produced by
// exactly the code that produced the leader's, and its log stays
// byte-identical to the leader's.

// SetLogEpoch sets the leader epoch stamped onto every subsequently logged
// record (zero disables stamping — the single-node default).
func (p *Plane) SetLogEpoch(epoch uint64) { p.recordEpoch.Store(epoch) }

// stampEpoch stamps rec with the plane's record epoch unless the record
// already carries one (shipped records keep the leader's stamp).
func (p *Plane) stampEpoch(rec *wal.Record) {
	if rec.Epoch == 0 {
		rec.Epoch = p.recordEpoch.Load()
	}
}

// AppendEpochMark logs a KindEpoch record announcing leadership under
// epoch. The record applies no state; it exists so logs that diverge under
// different leaders disagree on bytes at the divergence point, which is
// what shipping consistency checks compare.
func (p *Plane) AppendEpochMark(epoch uint64) error {
	return p.submit(&mut{rec: &wal.Record{Kind: wal.KindEpoch, Epoch: epoch}})
}

// ApplyReplicated applies one record shipped from a replication leader:
// append it to the local log preserving its sequence number, then apply it.
// A sequence gap wraps wal.ErrSeqGap — the follower missed records or holds
// a diverged suffix and must resync. Any other error means the follower's
// state can no longer be produced by replaying its log; the caller must
// treat the plane as diverged and resync it.
//
// Append and apply both happen under commitMu then walMu, the order
// Checkpoint takes them in, so no checkpoint can cover this record's
// sequence number without its state.
//
// The write-ahead discipline is inverted here on purpose: the leader
// already owns the commit, so the follower's append is replication, not a
// new decision — no abort record is originated on failure, because that
// would fork the follower's log from the leader's. Instead the leader's
// own append-then-fail pairs are mirrored: a record that fails to apply is
// held as a pending abort, and the leader's compensating KindAbort record
// (always the very next record) settles it. An abort that never arrives,
// or an abort for a record the follower applied successfully, is
// divergence.
func (p *Plane) ApplyReplicated(rec *wal.Record) error {
	if p.wal == nil {
		return fmt.Errorf("ctrl: replica apply requires a durable plane")
	}
	p.commitMu.Lock()
	defer p.commitMu.Unlock()
	p.walMu.Lock()
	defer p.walMu.Unlock()
	if _, err := p.wal.AppendReplica(rec); err != nil {
		return fmt.Errorf("ctrl: replica append: %w", err)
	}
	if err := p.crashPoint(rec.Kind); err != nil {
		return err
	}

	if p.pendingAbort != 0 {
		if rec.Kind == wal.KindAbort && rec.Ref == p.pendingAbort {
			p.pendingAbort = 0
			return nil // leader aborted the record we also failed to apply
		}
		return fmt.Errorf("ctrl: replica diverged: record #%d failed to apply and #%d (%s) is not its abort",
			p.pendingAbort, rec.Seq, rec.Kind)
	}
	if rec.Kind == wal.KindAbort {
		// The leader aborted a record this follower applied cleanly: the
		// follower holds a mutation the leader rolled back.
		return fmt.Errorf("ctrl: replica diverged: abort of #%d, which applied locally", rec.Ref)
	}

	if err := p.replay(rec); err != nil {
		// Deterministic replicas fail exactly where the leader failed; hold
		// the record as pending and let the leader's abort settle it.
		p.pendingAbort = rec.Seq
		p.K.Metrics.Counter("ctrl.replica_apply_failures").Inc()
		return nil
	}
	p.K.Metrics.Counter("ctrl.replica_applied").Inc()
	return nil
}
