package cluster

import (
	"fmt"

	"rmtk/internal/ctrl"
	"rmtk/internal/table"
)

// RolloutState is the terminal outcome of a fleet rollout.
type RolloutState int

const (
	// RolloutPromoted means every wave passed its gates and the whole fleet
	// now routes to the candidate.
	RolloutPromoted RolloutState = iota
	// RolloutRolledBack means a gate tripped (or timed out) on some node and
	// the fleet-wide rollback retargeted every node to the incumbent.
	RolloutRolledBack
)

func (s RolloutState) String() string {
	if s == RolloutPromoted {
		return "promoted"
	}
	return "rolled-back"
}

// RolloutSpec describes a fleet-staged canary: promote Candidate over
// Incumbent on Hook, wave by wave, gated per node.
type RolloutSpec struct {
	// Hook and Table name the replicated routing table SetupRoutes built:
	// MatchExact keyed by node id, so one replicated retarget flips exactly
	// the nodes in a wave while every replica's table stays byte-identical.
	Hook  string
	Table string
	// Incumbent and Candidate are program ids (already replicated to every
	// node via the leader's log).
	Incumbent int64
	Candidate int64
	// Gate configures each node's shadow gates (ctrl.StageProgramGate).
	Gate ctrl.CanaryConfig
	// Waves are cumulative fleet fractions; nil selects 5% -> 50% -> 100%.
	// The first wave is always clamped to exactly one node.
	Waves []float64
	// PhaseTicks bounds how long one wave may shadow before the rollout
	// gives up and rolls back. <=0 selects 256.
	PhaseTicks int64
	// CommitTicks bounds how long to wait for a wave's retarget to
	// replicate to a majority. <=0 selects 128.
	CommitTicks int64
	// OnTick generates one tick of traffic; nil fires Hook once per alive
	// node with the node's own id as the key, then ticks the cluster.
	OnTick func(c *Cluster)
}

// WaveReport records one wave's outcome.
type WaveReport struct {
	Wave     int
	Nodes    []int // node ids staged in this wave
	Ticks    int64 // shadow ticks until the verdict
	Promoted bool
	Reason   string // gate-trip reason when not promoted
}

// RolloutReport is the full run's outcome.
type RolloutReport struct {
	State     RolloutState
	Waves     []WaveReport
	Reason    string // first gate trip / timeout when rolled back
	Failovers int64  // leadership changes observed during the rollout
}

// SetupRoutes builds the replicated routing scaffold for a rollout: one
// MatchExact table on hook with an entry per node, every entry initially
// targeting prog. Committed through the leader in a single transaction, so
// it ships to followers like any other config change.
func (c *Cluster) SetupRoutes(tableName, hook string, prog int64) error {
	n := c.Nodes()
	return c.Propose(func(p *ctrl.Plane) error {
		txn := p.Begin()
		txn.CreateTable(tableName, hook, table.MatchExact)
		for id := 0; id < n; id++ {
			txn.AddEntry(tableName, &table.Entry{
				Key:    uint64(id),
				Action: table.Action{Kind: table.ActionProgram, ProgID: prog},
			})
		}
		return txn.Commit()
	})
}

// waveCounts converts cumulative fractions into strictly increasing node
// counts, first wave pinned to a single canary node, last wave the fleet.
func waveCounts(fracs []float64, n int) []int {
	if len(fracs) == 0 {
		fracs = []float64{0.05, 0.5, 1.0}
	}
	var counts []int
	prev := 0
	for i, f := range fracs {
		cnt := int(float64(n)*f + 0.999999)
		if i == 0 {
			cnt = 1
		}
		if cnt <= prev {
			cnt = prev + 1
		}
		if cnt > n {
			cnt = n
		}
		if cnt > prev {
			counts = append(counts, cnt)
			prev = cnt
		}
	}
	if prev < n {
		counts = append(counts, n)
	}
	return counts
}

// Rollout runs a fleet-staged canary: stage the candidate in shadow on the
// wave's nodes (gate-only, no local promotion), generate traffic until
// every staged gate passes, then commit one replicated transaction that
// retargets exactly those nodes' routing keys to the candidate. Any gate
// trip — or a wave that cannot pass within PhaseTicks — halts the rollout
// and rolls the entire fleet back to the incumbent through the same
// replicated path. Leader failover mid-rollout is tolerated: commits
// retry against the new leader, and staged shadows live on the data
// plane, untouched by elections.
func (c *Cluster) Rollout(spec RolloutSpec) (RolloutReport, error) {
	if spec.PhaseTicks <= 0 {
		spec.PhaseTicks = 256
	}
	if spec.CommitTicks <= 0 {
		spec.CommitTicks = 128
	}
	onTick := spec.OnTick
	if onTick == nil {
		onTick = func(c *Cluster) {
			for id := 0; id < c.Nodes(); id++ {
				c.Fire(id, spec.Hook, int64(id), 0, 0)
			}
			c.Tick()
		}
	}
	startFail := c.Metrics().Failovers
	counts := waveCounts(spec.Waves, c.Nodes())
	rep := RolloutReport{State: RolloutPromoted}
	finish := func() (RolloutReport, error) {
		rep.Failovers = c.Metrics().Failovers - startFail
		return rep, nil
	}

	prev := 0
	for w, cnt := range counts {
		wave := WaveReport{Wave: w}
		for id := prev; id < cnt; id++ {
			wave.Nodes = append(wave.Nodes, id)
		}
		staged := c.stageWave(wave.Nodes, spec)

		verdict, ticks, reason := c.runGates(staged, spec, onTick)
		wave.Ticks = ticks
		releaseAll(staged)
		if !verdict {
			wave.Reason = reason
			rep.Waves = append(rep.Waves, wave)
			rep.State = RolloutRolledBack
			rep.Reason = fmt.Sprintf("wave %d: %s", w, reason)
			if err := c.retarget(spec, 0, c.Nodes(), spec.Incumbent); err != nil {
				return rep, fmt.Errorf("cluster: rollback after %q: %w", reason, err)
			}
			return finish()
		}

		if err := c.retarget(spec, prev, cnt, spec.Candidate); err != nil {
			rep.State = RolloutRolledBack
			rep.Reason = err.Error()
			return rep, fmt.Errorf("cluster: promote wave %d: %w", w, err)
		}
		wave.Promoted = true
		rep.Waves = append(rep.Waves, wave)
		prev = cnt
	}
	return finish()
}

// stagedGate pairs a node's gate-only canary with the plane it was staged
// on; if the node restarts mid-wave the plane is rebuilt and the old
// shadow is gone, so the pair also serves as a validity check.
type stagedGate struct {
	id     int
	plane  *ctrl.Plane
	canary *ctrl.Canary
}

// stageWave attaches gate-only shadows on the wave's live nodes.
func (c *Cluster) stageWave(ids []int, spec RolloutSpec) []stagedGate {
	var staged []stagedGate
	for _, id := range ids {
		c.mu.Lock()
		n := c.nodes[id]
		alive, plane := n.alive, n.plane
		c.mu.Unlock()
		if !alive {
			continue
		}
		cn, err := plane.StageProgramGate(spec.Hook, spec.Candidate, spec.Gate)
		if err != nil {
			continue
		}
		staged = append(staged, stagedGate{id: id, plane: plane, canary: cn})
	}
	return staged
}

// runGates drives traffic until every staged gate passes, one trips, or
// the phase budget runs out. Nodes that die or restart mid-wave drop out
// of the quorum rather than wedging the wave.
func (c *Cluster) runGates(staged []stagedGate, spec RolloutSpec, onTick func(*Cluster)) (pass bool, ticks int64, reason string) {
	if len(staged) == 0 {
		return false, 0, "no live nodes to stage"
	}
	for ticks = 0; ticks < spec.PhaseTicks; ticks++ {
		onTick(c)
		allPass, any := true, false
		for _, sg := range staged {
			c.mu.Lock()
			valid := c.nodes[sg.id].alive && c.nodes[sg.id].plane == sg.plane
			c.mu.Unlock()
			if !valid {
				continue
			}
			any = true
			gp, pending, gerr := sg.canary.EvalGates()
			if gerr != nil && !pending {
				return false, ticks + 1, fmt.Sprintf("node %d: %v", sg.id, gerr)
			}
			if !gp {
				allPass = false
			}
		}
		if !any {
			return false, ticks + 1, "every staged node went down"
		}
		if allPass {
			return true, ticks + 1, ""
		}
	}
	return false, ticks, fmt.Sprintf("gates still pending after %d ticks", spec.PhaseTicks)
}

func releaseAll(staged []stagedGate) {
	for _, sg := range staged {
		sg.canary.Release()
	}
}

// retarget commits one replicated transaction flipping routing keys
// [from, to) to prog, retrying through leader failover, and waits for the
// commit point to cover it on a majority.
func (c *Cluster) retarget(spec RolloutSpec, from, to int, prog int64) error {
	var seq uint64
	err := c.ProposeRetry(func(p *ctrl.Plane) error {
		txn := p.Begin()
		for id := from; id < to; id++ {
			txn.UpdateAction(spec.Table, uint64(id),
				table.Action{Kind: table.ActionProgram, ProgID: prog})
		}
		if err := txn.Commit(); err != nil {
			return err
		}
		if l := p.WAL(); l != nil {
			seq = l.Seq()
		}
		return nil
	}, spec.CommitTicks)
	if err != nil {
		return err
	}
	return c.WaitCommit(seq, spec.CommitTicks)
}
