package cluster

import (
	"strings"
	"testing"

	"rmtk/internal/ctrl"
	"rmtk/internal/isa"
)

// rolloutRig builds a fleet with incumbent routing installed on every
// node plus a loaded candidate; divergent selects a candidate whose
// verdict differs from the incumbent's (trips the divergence gate).
func rolloutRig(t *testing.T, nodes int, seed int64, divergent bool) (*Cluster, RolloutSpec) {
	t.Helper()
	c, _ := fleet(t, nodes, seed)
	candSrc := "movimm r0, 1\nexit" // byte-for-byte same verdict
	if divergent {
		candSrc = "movimm r0, 2\nexit"
	}
	var inc, cand int64
	err := c.Propose(func(p *ctrl.Plane) error {
		var err error
		if inc, _, err = p.LoadProgram(&isa.Program{
			Name: "incumbent", Insns: isa.MustAssemble("movimm r0, 1\nexit"),
		}); err != nil {
			return err
		}
		cand, _, err = p.LoadProgram(&isa.Program{
			Name: "candidate", Insns: isa.MustAssemble(candSrc),
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetupRoutes("fleet_routes", "net/rx", inc); err != nil {
		t.Fatal(err)
	}
	requireConverged(t, c, 100)
	return c, RolloutSpec{
		Hook: "net/rx", Table: "fleet_routes",
		Incumbent: inc, Candidate: cand,
		Gate: ctrl.CanaryConfig{MinShadowFires: 8, MinShadowOutcomes: 1},
	}
}

// requireRoutes asserts every live node's routing table maps each key to
// the expected program.
func requireRoutes(t *testing.T, c *Cluster, tab string, want int64) {
	t.Helper()
	for id := 0; id < c.Nodes(); id++ {
		if !c.Alive(id) {
			continue
		}
		routes, err := c.RouteTargets(id, tab)
		if err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
		for key, prog := range routes {
			if prog != want {
				t.Fatalf("node %d key %d routes to %d, want %d", id, key, prog, want)
			}
		}
	}
}

// TestRolloutPromote: a clean candidate graduates wave by wave — one
// canary node, then half the fleet, then all — each promotion committed
// as one replicated transaction.
func TestRolloutPromote(t *testing.T) {
	c, spec := rolloutRig(t, 5, 10, false)
	rep, err := c.Rollout(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.State != RolloutPromoted {
		t.Fatalf("state = %v (%s)", rep.State, rep.Reason)
	}
	if len(rep.Waves) < 3 {
		t.Fatalf("waves = %d, want staged rollout", len(rep.Waves))
	}
	if got := len(rep.Waves[0].Nodes); got != 1 {
		t.Fatalf("first wave staged %d nodes, want exactly 1 canary", got)
	}
	requireConverged(t, c, 200)
	requireRoutes(t, c, spec.Table, spec.Candidate)
	for id := 0; id < c.Nodes(); id++ {
		if res, ok := c.Fire(id, spec.Hook, int64(id), 0, 0); !ok || res.Verdict != 1 {
			t.Fatalf("node %d post-promotion verdict = %+v", id, res)
		}
	}
}

// TestRolloutGateTripRollsBackFleet: a divergent candidate trips the very
// first node's gate and the whole fleet — including nothing-yet-promoted
// nodes — is retargeted back to the incumbent.
func TestRolloutGateTripRollsBackFleet(t *testing.T) {
	c, spec := rolloutRig(t, 5, 11, true)
	rep, err := c.Rollout(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.State != RolloutRolledBack {
		t.Fatalf("state = %v, want rollback", rep.State)
	}
	if !strings.Contains(rep.Reason, "divergence") {
		t.Fatalf("reason = %q, want divergence gate trip", rep.Reason)
	}
	if len(rep.Waves) != 1 {
		t.Fatalf("rollout continued past the tripped wave: %+v", rep.Waves)
	}
	requireConverged(t, c, 200)
	requireRoutes(t, c, spec.Table, spec.Incumbent)
	// No shadow left attached anywhere.
	for id := 0; id < c.Nodes(); id++ {
		if sh := c.Node(id).Plane().K.DetachShadow(spec.Hook); sh != nil {
			t.Fatalf("node %d still has a shadow attached", id)
		}
	}
}

// TestRolloutMidWaveGateTrip: the canary wave promotes cleanly, then a
// later wave trips its gate; the fleet-wide rollback also undoes the
// canary wave's earlier promotion.
func TestRolloutMidWaveGateTrip(t *testing.T) {
	c, _ := fleet(t, 5, 12)
	// Incumbent always answers 1; the candidate echoes arg2. Traffic with
	// arg2=1 is indistinguishable; arg2=2 makes the candidate diverge.
	var inc, cand int64
	err := c.Propose(func(p *ctrl.Plane) error {
		var err error
		if inc, _, err = p.LoadProgram(&isa.Program{
			Name: "incumbent", Insns: isa.MustAssemble("movimm r0, 1\nexit"),
		}); err != nil {
			return err
		}
		cand, _, err = p.LoadProgram(&isa.Program{
			Name: "echo", Insns: isa.MustAssemble("mov r0, r2\nexit"),
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetupRoutes("fleet_routes", "net/rx", inc); err != nil {
		t.Fatal(err)
	}
	requireConverged(t, c, 100)

	spec := RolloutSpec{
		Hook: "net/rx", Table: "fleet_routes",
		Incumbent: inc, Candidate: cand,
		Gate:       ctrl.CanaryConfig{MinShadowFires: 8, MinShadowOutcomes: 1},
		PhaseTicks: 64,
	}
	// Benign traffic until the canary wave's promotion lands on node 0,
	// divergent traffic afterwards — so the trip happens mid-rollout.
	canaryPromoted := false
	spec.OnTick = func(c *Cluster) {
		if !canaryPromoted {
			if r, err := c.RouteTargets(0, spec.Table); err == nil && r[0] == cand {
				canaryPromoted = true
			}
		}
		arg := int64(1)
		if canaryPromoted {
			arg = 2
		}
		for id := 0; id < c.Nodes(); id++ {
			c.Fire(id, spec.Hook, int64(id), arg, 0)
		}
		c.Tick()
	}
	rep, err := c.Rollout(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.State != RolloutRolledBack {
		t.Fatalf("state = %v (%+v)", rep.State, rep.Waves)
	}
	if len(rep.Waves) < 2 || !rep.Waves[0].Promoted || rep.Waves[1].Promoted {
		t.Fatalf("waves = %+v, want wave 0 promoted then a trip", rep.Waves)
	}
	requireConverged(t, c, 200)
	requireRoutes(t, c, spec.Table, inc) // node 0's promotion undone too
}

// TestRolloutSurvivesDeadNode: a dead node neither wedges its wave nor
// blocks promotion; the replicated retarget catches it up on restart.
func TestRolloutSurvivesDeadNode(t *testing.T) {
	c, spec := rolloutRig(t, 5, 13, false)
	c.Kill(4)
	c.TickN(5)
	rep, err := c.Rollout(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.State != RolloutPromoted {
		t.Fatalf("state = %v (%s)", rep.State, rep.Reason)
	}
	if err := c.Restart(4); err != nil {
		t.Fatal(err)
	}
	requireConverged(t, c, 400)
	requireRoutes(t, c, spec.Table, spec.Candidate)
}
