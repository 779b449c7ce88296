// Package cluster replicates the control plane across an in-process fleet
// of rmtk nodes. Each node wraps a core.Kernel plus a durable ctrl.Plane;
// one node leads, and followers tail the leader's CRC32C-framed WAL over a
// simulated, fault-injectable transport (internal/fault.Network): shipped
// records append with their leader-assigned sequence numbers and replay
// through the same ctrl mutator paths recovery uses, so every replica's
// log is byte-identical to the leader's and its state is reproducible from
// that log.
//
// The protocol is a deliberately small Raft-shaped core adapted to log
// shipping: monotonically increasing leader epochs stamped into every
// record, heartbeats with timeouts, per-follower exponential backoff with
// seeded jitter on lost RPCs, a prevSeq/prevEpoch consistency check before
// every batch, full resync (leader checkpoint + suffix, rebuilt via
// ctrl.Recover) when histories diverge, deterministic election of the
// most-caught-up reachable node, and graceful degradation — a node cut off
// from quorum serves its last-known-good state read-only and refuses
// writes (ErrPartitioned).
//
// Time is virtual: the fleet only advances inside Tick, every random draw
// comes from one seeded source, and message delivery within a tick runs in
// a seeded-shuffled order (reordering). A given seed replays the exact
// same failure timeline, election outcome, and final state — chaos tests
// are deterministic.
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"rmtk/internal/core"
	"rmtk/internal/ctrl"
	"rmtk/internal/fault"
	"rmtk/internal/wal"
)

// Options parameterizes a fleet.
type Options struct {
	// Nodes is the fleet size. <=0 selects 3.
	Nodes int
	// Dir is the root directory; node i lives in Dir/node-<i>.
	Dir string
	// Seed drives every random decision (jitter, delivery order).
	Seed int64
	// Net is the injectable message fabric; nil is a clean network.
	Net *fault.Network
	// Prep runs against each node's fresh kernel before any replay (helper
	// registration and the like).
	Prep func(*core.Kernel) error
	// WAL selects the per-node log durability options.
	WAL wal.Options
}

// The protocol's timers, in ticks, and its batching bounds.
const (
	// heartbeatEvery is the leader's shipping cadence.
	heartbeatEvery = 1
	// electionTimeout is how long a follower waits without a heartbeat
	// before attempting election.
	electionTimeout = 10
	// leaseTimeout is how long a leader tolerates an unreachable majority
	// before degrading to read-only.
	leaseTimeout = 2 * electionTimeout
	// degradeTimeout is how long a leaderless follower waits before
	// degrading to read-only.
	degradeTimeout = 3 * electionTimeout
	// rpcTimeout is how long a sender waits before treating a shipping RPC
	// as lost.
	rpcTimeout = 4
	// maxShipBatch bounds records per shipping RPC.
	maxShipBatch = 64
	// maxBackoff caps the per-follower retry backoff.
	maxBackoff = 16
	// tickNs is the virtual time one tick represents.
	tickNs = 1_000_000
)

// call is one in-flight message: deliver runs when the virtual clock
// reaches at. order is the FIFO tiebreak before the per-tick shuffle.
type call struct {
	at      int64
	deliver func()
	order   int64
}

// Metrics counts protocol events for status and experiments.
type Metrics struct {
	Shipped   int64 // records applied via log shipping
	Retries   int64 // shipping RPCs lost and backed off
	Elections int64 // election attempts
	Failovers int64 // leadership changes after the initial epoch
	Resyncs   int64 // full state transfers
	Degrades  int64 // transitions into read-only degradation
}

type metrics struct {
	shipped, retries, elections, failovers, resyncs, degrades int64
}

// Cluster is an in-process fleet. All methods are safe for concurrent use;
// the protocol itself only advances inside Tick.
type Cluster struct {
	mu      sync.Mutex
	opts    Options
	nodes   []*Node
	net     *fault.Network
	rng     *rand.Rand
	tickNum int64
	clockNs int64
	msgs    []*call
	callSeq int64
	metrics metrics
}

// New builds and starts a fleet rooted at opts.Dir: node 0 boots as the
// leader of epoch 1 with an epoch mark in its log, everyone else follows
// from the first heartbeat.
func New(opts Options) (*Cluster, error) {
	if opts.Nodes <= 0 {
		opts.Nodes = 3
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("cluster: Options.Dir is required")
	}
	c := &Cluster{
		opts: opts,
		net:  opts.Net,
		rng:  rand.New(rand.NewSource(opts.Seed)),
	}
	for i := 0; i < opts.Nodes; i++ {
		dir := filepath.Join(opts.Dir, fmt.Sprintf("node-%d", i))
		k := core.NewKernel(core.Config{})
		if opts.Prep != nil {
			if err := opts.Prep(k); err != nil {
				c.Close()
				return nil, fmt.Errorf("cluster: node %d prep: %w", i, err)
			}
		}
		p, err := ctrl.Open(k, dir, opts.WAL)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		n := &Node{
			id: i, dir: dir, c: c, plane: p, alive: true,
			leaderID: -1,
			match:    make(map[int]uint64), probed: make(map[int]bool),
			needResync: make(map[int]bool), inflight: make(map[int]bool),
			nextSend: make(map[int]int64), backoff: make(map[int]int64),
			lastOK: make(map[int]int64),
		}
		c.nodes = append(c.nodes, n)
	}
	c.promote(c.nodes[0], 1)
	c.metrics.failovers = 0 // the boot promotion is not a failover
	return c, nil
}

// promote installs f as the leader of epoch. Caller holds c.mu (or is New).
func (c *Cluster) promote(f *Node, epoch uint64) {
	f.role = RoleLeader
	f.epoch = epoch
	if epochStale(f.votedEpoch, epoch) {
		f.votedEpoch = epoch
	}
	f.leaderID = f.id
	f.plane.SetLogEpoch(epoch)
	if err := f.plane.AppendEpochMark(epoch); err == nil {
		f.lastRecEpoch = epoch
	}
	f.saveEpoch()
	f.epochStartSeq = f.seq()
	f.lastFault = nil
	f.match = make(map[int]uint64)
	f.probed = make(map[int]bool)
	f.needResync = make(map[int]bool)
	f.inflight = make(map[int]bool)
	f.nextSend = make(map[int]int64)
	f.backoff = make(map[int]int64)
	f.lastOK = make(map[int]int64)
	for _, p := range c.nodes {
		if p.id != f.id {
			f.lastOK[p.id] = c.tickNum
		}
	}
	if epoch > 1 {
		c.metrics.failovers++
	}
}

// majority is the quorum size over the full fleet.
func (c *Cluster) majority() int { return len(c.nodes)/2 + 1 }

// rpc models one round-trip: the fabric decides loss and latency at send
// time, partition and liveness are re-checked at delivery (a link can die
// with the message in flight), and a lost message surfaces to the sender
// as a timeout rpcTimeout ticks later.
func (c *Cluster) rpc(from, to int, exec, fail func()) {
	delay, ok := c.net.Send(from, to)
	if !ok {
		c.enqueue(c.tickNum+rpcTimeout, fail)
		return
	}
	c.enqueue(c.tickNum+1+delay, func() {
		if !c.net.Reachable(from, to) || !c.nodes[to].alive {
			fail()
			return
		}
		exec()
	})
}

// enqueue schedules f to run at virtual time at.
func (c *Cluster) enqueue(at int64, f func()) {
	c.callSeq++
	c.msgs = append(c.msgs, &call{at: at, deliver: f, order: c.callSeq})
}

// Tick advances the fleet by one virtual time step: deliver due messages
// in a seeded-shuffled order (reordering injection), let leaders ship and
// check their lease, then let timed-out followers run elections.
func (c *Cluster) Tick() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tickNum++
	c.clockNs += tickNs

	var due []*call
	rest := c.msgs[:0]
	for _, m := range c.msgs {
		if m.at <= c.tickNum {
			due = append(due, m)
		} else {
			rest = append(rest, m)
		}
	}
	c.msgs = rest
	sort.Slice(due, func(i, j int) bool { return due[i].order < due[j].order })
	c.rng.Shuffle(len(due), func(i, j int) { due[i], due[j] = due[j], due[i] })
	for _, m := range due {
		m.deliver()
	}

	for _, n := range c.nodes {
		if n.alive && n.role == RoleLeader {
			n.leaderTick()
		}
	}
	for _, n := range c.nodes {
		if n.alive && n.role != RoleLeader {
			n.maybeElect()
		}
	}
}

// TickN advances the fleet n ticks.
func (c *Cluster) TickN(n int) {
	for i := 0; i < n; i++ {
		c.Tick()
	}
}

// Now reports the virtual clock in nanoseconds.
func (c *Cluster) Now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clockNs
}

// ChargeNs advances the virtual clock by extra work performed outside the
// protocol (experiments charge request service time here).
func (c *Cluster) ChargeNs(ns int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clockNs += ns
}

// Metrics snapshots the protocol event counters.
func (c *Cluster) Metrics() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Metrics{
		Shipped: c.metrics.shipped, Retries: c.metrics.retries,
		Elections: c.metrics.elections, Failovers: c.metrics.failovers,
		Resyncs: c.metrics.resyncs, Degrades: c.metrics.degrades,
	}
}

// Nodes reports the fleet size.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// Node returns the node with the given id.
func (c *Cluster) Node(id int) *Node { return c.nodes[id] }

// Alive reports whether node id is up.
func (c *Cluster) Alive(id int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[id].alive
}

// leaderLocked returns the live leader with the highest epoch, or nil.
func (c *Cluster) leaderLocked() *Node {
	var best *Node
	for _, n := range c.nodes {
		if n.alive && n.role == RoleLeader && (best == nil || epochAdvanced(n.epoch, best.epoch)) {
			best = n
		}
	}
	return best
}

// Leader reports the current leader id and epoch (-1 when none).
func (c *Cluster) Leader() (id int, epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := c.leaderLocked(); n != nil {
		return n.id, n.epoch
	}
	return -1, 0
}

// Propose runs fn against the leader's plane — the write path. Every
// mutation fn commits is logged on the leader and ships to followers on
// subsequent ticks. Wrapped ErrNotLeader when no live leader exists;
// wrapped ErrPartitioned when the only live claimant is degraded.
func (c *Cluster) Propose(fn func(*ctrl.Plane) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.leaderLocked()
	if n == nil {
		for _, m := range c.nodes {
			if m.alive && m.role == RoleDegraded && m.leaderID == m.id {
				return fmt.Errorf("%w: node %d leads epoch %d without quorum", ErrPartitioned, m.id, m.epoch)
			}
		}
		return fmt.Errorf("%w: no live leader", ErrNotLeader)
	}
	return fn(n.plane)
}

// ProposeRetry retries fn through leadership changes: on wrapped
// ErrNotLeader or ErrPartitioned it ticks the fleet with
// exponential backoff plus seeded jitter (elections need ticks to run) and
// tries again, for at most maxTicks ticks of waiting.
func (c *Cluster) ProposeRetry(fn func(*ctrl.Plane) error, maxTicks int64) error {
	var waited, backoff int64
	for {
		err := c.Propose(fn)
		if err == nil || !(errors.Is(err, ErrNotLeader) || errors.Is(err, ErrPartitioned)) {
			return err
		}
		if waited >= maxTicks {
			return fmt.Errorf("cluster: no leader after %d ticks: %w", waited, err)
		}
		backoff *= 2
		if backoff < 1 {
			backoff = 1
		}
		if backoff > maxBackoff {
			backoff = maxBackoff
		}
		step := backoff + c.jitter(backoff)
		c.TickN(int(step))
		waited += step
	}
}

// jitter draws a seeded jitter in [0, n).
func (c *Cluster) jitter(n int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Int63n(n)
}

// WaitCommit ticks until the leader's commit point covers seq (replicated
// on a majority), for at most maxTicks.
func (c *Cluster) WaitCommit(seq uint64, maxTicks int64) error {
	for i := int64(0); i <= maxTicks; i++ {
		c.mu.Lock()
		n := c.leaderLocked()
		ok := n != nil && n.commitSeq >= seq
		c.mu.Unlock()
		if ok {
			return nil
		}
		c.Tick()
	}
	return fmt.Errorf("cluster: #%d not committed after %d ticks", seq, maxTicks)
}

// Fire fires hook on node id's kernel — the read/datapath path, served by
// every live node including degraded ones (last-known-good, read-only).
// ok=false when the node is down.
func (c *Cluster) Fire(id int, hook string, key, arg2, arg3 int64) (core.FireResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.nodes[id]
	if !n.alive {
		return core.FireResult{}, false
	}
	return n.plane.K.Fire(hook, key, arg2, arg3), true
}

// Kill crashes node id: its log closes mid-flight, heartbeats stop, and
// in-flight RPCs to it are lost. State on disk stays for Restart.
func (c *Cluster) Kill(id int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.nodes[id]
	if !n.alive {
		return
	}
	n.alive = false
	if n.role == RoleLeader {
		n.role = RoleFollower
	}
	if n.plane != nil && n.plane.WAL() != nil {
		_ = n.plane.WAL().Close()
	}
}

// Restart brings a killed node back through ctrl.Recover — the same crash
// recovery a single-node plane uses — and rejoins it as a follower; the
// leader's consistency probe decides whether its log tail survives or a
// resync is ordered.
func (c *Cluster) Restart(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.nodes[id]
	if n.alive {
		return nil
	}
	p, _, err := ctrl.Recover(n.dir, core.Config{}, c.opts.WAL, c.opts.Prep)
	if err != nil {
		return fmt.Errorf("cluster: restart node %d: %w", id, err)
	}
	epoch, voted, err := ReadEpochState(n.dir)
	if err != nil {
		return err
	}
	n.plane = p
	n.epoch, n.votedEpoch = epoch, voted
	n.role = RoleFollower
	n.leaderID = -1
	n.alive = true
	n.lastHB = c.tickNum
	n.lastElect = c.tickNum
	n.cache = logCache{}
	n.lastFault = nil
	n.lastRecEpoch = 0
	if sc, serr := wal.Scan(n.dir); serr == nil && len(sc.Records) > 0 {
		n.lastRecEpoch = sc.Records[len(sc.Records)-1].Epoch
	}
	return nil
}

// Close shuts every node's log down.
func (c *Cluster) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.nodes {
		if n != nil && n.plane != nil && n.plane.WAL() != nil {
			_ = n.plane.WAL().Close()
		}
	}
}

// NodeStatus is one node's externally visible replication state.
type NodeStatus struct {
	ID        int
	Alive     bool
	Role      Role
	Epoch     uint64
	LeaderID  int
	LastSeq   uint64
	CommitSeq uint64
	Digest    uint32 // ctrl inventory digest: equal digests = equal config
	Fault     error
}

func (s NodeStatus) String() string {
	state := "up"
	if !s.Alive {
		state = "down"
	}
	line := fmt.Sprintf("node %d: %s %s epoch=%d leader=%d seq=#%d commit=#%d digest=%08x",
		s.ID, state, s.Role, s.Epoch, s.LeaderID, s.LastSeq, s.CommitSeq, s.Digest)
	if s.Fault != nil {
		line += fmt.Sprintf(" fault=%v", s.Fault)
	}
	return line
}

// Status snapshots every node.
func (c *Cluster) Status() []NodeStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]NodeStatus, len(c.nodes))
	for i, n := range c.nodes {
		st := NodeStatus{
			ID: n.id, Alive: n.alive, Role: n.role, Epoch: n.epoch,
			LeaderID: n.leaderID, CommitSeq: n.commitSeq, Fault: n.lastFault,
		}
		if n.alive {
			st.LastSeq = n.seq()
			st.Digest = n.plane.InventoryDigest()
		}
		out[i] = st
	}
	return out
}

// Converged reports whether every live node agrees on epoch, log position,
// and configuration digest — the zero-divergence check chaos tests assert.
func (c *Cluster) Converged() bool {
	sts := c.Status()
	var ref *NodeStatus
	for i := range sts {
		if !sts[i].Alive {
			continue
		}
		if ref == nil {
			ref = &sts[i]
			continue
		}
		if !epochMatches(sts[i].Epoch, ref.Epoch) || sts[i].LastSeq != ref.LastSeq || sts[i].Digest != ref.Digest {
			return false
		}
	}
	return true
}

// CompareLogs cross-checks the replica logs on disk frame by frame: every
// pair of logs must agree byte-for-byte on every sequence number they
// share. Divergence wraps ErrDivergedLog with the first offending record.
// It reads the directories directly, so it also works on a stopped fleet
// (rmtkctl cluster-status uses it).
func CompareLogs(dirs []string) error {
	type frame struct {
		payload string
		dir     string
	}
	seen := make(map[uint64]frame)
	for _, dir := range dirs {
		sc, err := wal.Scan(dir)
		if err != nil {
			return err
		}
		for _, rec := range sc.Records {
			raw, err := json.Marshal(rec)
			if err != nil {
				return err
			}
			enc := string(raw)
			if prev, ok := seen[rec.Seq]; ok {
				if prev.payload != enc {
					return fmt.Errorf("%w: record #%d differs between %s and %s",
						ErrDivergedLog, rec.Seq, prev.dir, dir)
				}
				continue
			}
			seen[rec.Seq] = frame{payload: enc, dir: dir}
		}
	}
	return nil
}

// NodeDirs lists the node directories under a fleet root in id order.
func NodeDirs(root string) ([]string, error) {
	ents, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	var ids []int
	for _, e := range ents {
		var id int
		if _, err := fmt.Sscanf(e.Name(), "node-%d", &id); err == nil && e.IsDir() {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	dirs := make([]string, len(ids))
	for i, id := range ids {
		dirs[i] = filepath.Join(root, fmt.Sprintf("node-%d", id))
	}
	return dirs, nil
}
