package ctrl

import (
	"fmt"

	"rmtk/internal/core"
	"rmtk/internal/wal"
)

// This file wires the kernel's engine sentinel into the durable control
// plane: every sentinel incident (a demotion or detected divergence) is
// submitted as a wal.KindIncident record like any mutation, so it is
// fsynced, checkpointed and replayed on recovery. Replay re-applies the
// quarantine by content hash (apply), so a restarted kernel distrusts exactly
// the native tiers the incident flagged.

// EnableIncidentLog attaches the plane as the sentinel's incident sink. The
// kernel must already have a sentinel attached (core.AttachSentinel).
// Incidents are observations: the live apply is a no-op (mut.do) because the
// sentinel demoted the tier before emitting; only replay applies the record.
func (p *Plane) EnableIncidentLog() error {
	s := p.K.EngineSentinel()
	if s == nil {
		return fmt.Errorf("ctrl: EnableIncidentLog requires an attached engine sentinel")
	}
	s.SetIncidentSink(func(ev core.IncidentEvent) {
		rec := &wal.Record{Kind: wal.KindIncident, Incident: &wal.Incident{
			Program: ev.Program,
			Hash:    ev.Hash,
			From:    ev.From.String(),
			To:      ev.To.String(),
			Cause:   ev.Cause,
			Fire:    ev.Fire,
			Detail:  ev.Detail,
		}}
		if err := p.submit(&mut{rec: rec, do: noop}); err != nil {
			// The demotion already took effect in memory; a log failure loses
			// only durability of this incident. Count it loudly.
			p.K.Metrics.Counter("ctrl.incident_log_errors").Inc()
		}
	})
	return nil
}

func noop() (func() error, error) { return nil, nil }
