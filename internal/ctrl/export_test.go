package ctrl

import (
	"rmtk/internal/core"
	"rmtk/internal/table"
	"rmtk/internal/wal"
)

// The entry deletion the replay tests log, and the gate verdict and shadow
// statistics the canary tests read.

// RemoveEntry deletes an entry from a named table.
func (p *Plane) RemoveEntry(tableName string, e *table.Entry) error {
	return p.submit(&mut{rec: &wal.Record{Kind: wal.KindRemoveEntry, Table: tableName}, entry: e})
}

// GateErr explains a rejection, or nil.
func (c *Canary) GateErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gateErr
}

// Report returns the shadow-execution statistics accumulated so far.
func (c *Canary) Report() core.CanaryReport { return c.sh.Report() }
