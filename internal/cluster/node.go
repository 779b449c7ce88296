package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"rmtk/internal/core"
	"rmtk/internal/ctrl"
	"rmtk/internal/wal"
)

// Role is a node's position in the replication protocol.
type Role int

const (
	// RoleFollower tails the leader's log and applies shipped records.
	RoleFollower Role = iota
	// RoleLeader owns the log: writes commit here and ship to followers.
	RoleLeader
	// RoleDegraded is the graceful floor: cut off from quorum, the node
	// serves its last-known-good state read-only and refuses writes.
	RoleDegraded
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleFollower:
		return "follower"
	case RoleLeader:
		return "leader"
	case RoleDegraded:
		return "degraded"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// epochFileName persists a node's epoch state across restarts.
const epochFileName = "epoch"

// epochState is the durable election state: the highest epoch the node has
// adopted and the highest epoch it has voted in (so a restart cannot grant
// a second vote in an epoch it already voted in).
type epochState struct {
	Epoch uint64 `json:"epoch"`
	Voted uint64 `json:"voted"`
}

// ReadEpochState reads a node directory's persisted epoch state (zero
// values when the file does not exist — a never-elected fresh node).
func ReadEpochState(dir string) (epoch, voted uint64, err error) {
	data, err := os.ReadFile(filepath.Join(dir, epochFileName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	var st epochState
	if err := json.Unmarshal(data, &st); err != nil {
		return 0, 0, fmt.Errorf("cluster: epoch file: %w", err)
	}
	return st.Epoch, st.Voted, nil
}

// logCache is a leader's in-memory view of its own log, refreshed
// incrementally with wal.ScanFrom so shipping is O(new records), not
// O(log). recs[i].Seq == first+i; a file shrink (compaction) resets it.
type logCache struct {
	bytes int64
	first uint64
	recs  []*wal.Record
}

// Node is one fleet member: a kernel plus durable control plane, wired
// into the cluster's replication protocol. All mutable state is guarded by
// the cluster mutex — handlers only run from Cluster.Tick.
type Node struct {
	id  int
	dir string
	c   *Cluster

	plane *ctrl.Plane
	alive bool

	role         Role
	epoch        uint64
	votedEpoch   uint64
	leaderID     int // -1 when unknown
	lastHB       int64
	lastElect    int64
	lastRecEpoch uint64 // epoch of the last record in the local log (0 unknown)
	commitSeq    uint64
	lastFault    error // last divergence/resync cause, for status

	// Leader-side replication state, reset at promotion.
	epochStartSeq uint64
	match         map[int]uint64 // follower -> proven replicated prefix
	probed        map[int]bool   // consistency check done for follower
	needResync    map[int]bool
	inflight      map[int]bool
	nextSend      map[int]int64
	backoff       map[int]int64
	lastOK        map[int]int64

	cache logCache
}

// ID reports the node's fleet id.
func (n *Node) ID() int { return n.id }

// Dir reports the node's durable directory.
func (n *Node) Dir() string { return n.dir }

// Role reports the node's current replication role.
func (n *Node) Role() Role {
	n.c.mu.Lock()
	defer n.c.mu.Unlock()
	return n.role
}

// Epoch reports the highest leader epoch the node has acknowledged.
func (n *Node) Epoch() uint64 {
	n.c.mu.Lock()
	defer n.c.mu.Unlock()
	return n.epoch
}

// Plane exposes the node's control plane for read-side inspection.
func (n *Node) Plane() *ctrl.Plane {
	n.c.mu.Lock()
	defer n.c.mu.Unlock()
	return n.plane
}

// seq reports the node's log position (0 when the plane is down).
func (n *Node) seq() uint64 {
	if n.plane == nil || n.plane.WAL() == nil {
		return 0
	}
	return n.plane.WAL().Seq()
}

// saveEpoch persists the node's election state.
func (n *Node) saveEpoch() {
	data, _ := json.Marshal(epochState{Epoch: n.epoch, Voted: n.votedEpoch})
	_ = os.WriteFile(filepath.Join(n.dir, epochFileName), data, 0o644)
}

// adopt accepts leadership of leader at epoch (>= the node's own).
func (n *Node) adopt(epoch uint64, leader int) {
	n.epoch = epoch
	if epochStale(n.votedEpoch, epoch) {
		n.votedEpoch = epoch
	}
	n.leaderID = leader
	n.role = RoleFollower
	n.plane.SetLogEpoch(epoch)
	n.saveEpoch()
}

// --- shipping RPCs --------------------------------------------------------

// appendArgs is the combined heartbeat / log-shipping / resync request.
type appendArgs struct {
	epoch  uint64
	leader int
	commit uint64

	probe     bool   // empty heartbeat asking for the follower's position
	prevSeq   uint64 // record preceding recs, for the consistency check
	prevEpoch uint64
	recs      []*wal.Record

	resync bool // full state transfer: checkpoint + suffix
	ckSeq  uint64
	ckBody []byte
}

// appendReply reports the follower's position after handling an append.
type appendReply struct {
	epoch     uint64
	stale     bool // the sender's epoch is behind: step down
	ok        bool // recs applied; lastSeq is the new proven prefix
	resync    bool // follower needs a full resync
	lastSeq   uint64
	lastEpoch uint64
}

// refreshCache extends the leader's log cache with records appended since
// the last refresh.
func (n *Node) refreshCache() {
	l := n.plane.WAL()
	if l == nil {
		return
	}
	if l.Size() < n.cache.bytes {
		n.cache = logCache{} // compacted underneath: full rescan
	}
	sc, err := wal.ScanFrom(n.dir, n.cache.bytes)
	if err != nil {
		n.cache = logCache{}
		if sc, err = wal.Scan(n.dir); err != nil {
			return
		}
	}
	if len(sc.Records) > 0 {
		if len(n.cache.recs) == 0 {
			n.cache.first = sc.Records[0].Seq
		}
		n.cache.recs = append(n.cache.recs, sc.Records...)
	}
	n.cache.bytes = sc.ValidBytes
}

// epochOf reports the epoch of the cached record at seq (ok=false when the
// cache does not cover it).
func (n *Node) epochOf(seq uint64) (uint64, bool) {
	if seq == 0 {
		return 0, true
	}
	if len(n.cache.recs) == 0 || seq < n.cache.first || seq >= n.cache.first+uint64(len(n.cache.recs)) {
		return 0, false
	}
	return n.cache.recs[seq-n.cache.first].Epoch, true
}

// cacheFrom returns the cached records with Seq in (after, after+limit].
func (n *Node) cacheFrom(after uint64, limit int) []*wal.Record {
	if len(n.cache.recs) == 0 || after < n.cache.first-1 {
		return nil
	}
	lo := after + 1 - n.cache.first
	if lo >= uint64(len(n.cache.recs)) {
		return nil
	}
	hi := lo + uint64(limit)
	if hi > uint64(len(n.cache.recs)) {
		hi = uint64(len(n.cache.recs))
	}
	return n.cache.recs[lo:hi]
}

// leaderTick ships to every follower whose retry/heartbeat timer is due,
// then checks its own quorum lease.
func (n *Node) leaderTick() {
	c := n.c
	n.refreshCache()
	for _, f := range c.nodes {
		if f.id == n.id || n.inflight[f.id] || c.tickNum < n.nextSend[f.id] {
			continue
		}
		n.sendAppend(f)
	}
	// Lease: a leader that cannot reach a quorum degrades to read-only
	// rather than keep accepting writes the majority may never see.
	reachable := 1
	for _, f := range c.nodes {
		if f.id != n.id && c.tickNum-n.lastOK[f.id] <= leaseTimeout {
			reachable++
		}
	}
	if reachable < c.majority() {
		n.role = RoleDegraded
		n.lastHB = c.tickNum
		n.lastFault = fmt.Errorf("%w: leader of epoch %d reached %d/%d nodes", ErrPartitioned, n.epoch, reachable, len(c.nodes))
		c.metrics.degrades++
	}
}

// sendAppend issues one shipping RPC to follower f: a resync when f is
// known diverged, a probe when f's position is unknown, otherwise the next
// batch of records after f's proven prefix.
func (n *Node) sendAppend(f *Node) {
	c := n.c
	args := appendArgs{epoch: n.epoch, leader: n.id, commit: n.commitSeq}
	switch {
	case n.needResync[f.id]:
		ckSeq, body, err := wal.LatestCheckpoint(n.dir)
		if errors.Is(err, wal.ErrNoCheckpoint) {
			ckSeq, body = 0, nil
		} else if err != nil {
			return
		}
		args.resync = true
		args.ckSeq, args.ckBody = ckSeq, body
		args.recs = n.cacheFrom(ckSeq, 1<<30)
	case !n.probed[f.id]:
		args.probe = true
	default:
		match := n.match[f.id]
		if match < n.seq() && (len(n.cache.recs) == 0 || match+1 < n.cache.first) {
			// The records f needs were compacted away (possibly the whole
			// log): only a checkpoint resync covers the gap.
			n.needResync[f.id] = true
			return
		}
		prevEpoch, _ := n.epochOf(match)
		args.prevSeq, args.prevEpoch = match, prevEpoch
		args.recs = n.cacheFrom(match, maxShipBatch)
	}
	n.inflight[f.id] = true
	epoch := n.epoch
	c.rpc(n.id, f.id,
		func() {
			reply := f.onAppend(args)
			if n.alive && n.role == RoleLeader && epochMatches(n.epoch, epoch) {
				n.onAppendReply(f.id, reply)
			}
		},
		func() {
			if n.alive && n.role == RoleLeader && epochMatches(n.epoch, epoch) {
				n.onDropped(f.id)
			}
		})
}

// onDropped backs off a follower's retry timer exponentially with seeded
// jitter after a lost shipping RPC.
func (n *Node) onDropped(fid int) {
	c := n.c
	n.inflight[fid] = false
	b := n.backoff[fid] * 2
	if b < 2 {
		b = 2
	}
	if b > maxBackoff {
		b = maxBackoff
	}
	n.backoff[fid] = b
	n.nextSend[fid] = c.tickNum + b + c.rng.Int63n(b)
	c.metrics.retries++
}

// onAppend is the follower half of the shipping protocol.
func (f *Node) onAppend(a appendArgs) appendReply {
	c := f.c
	if epochStale(a.epoch, f.epoch) {
		return appendReply{epoch: f.epoch, stale: true}
	}
	if epochAdvanced(a.epoch, f.epoch) || f.leaderID != a.leader || f.role != RoleFollower {
		f.adopt(a.epoch, a.leader)
	}
	f.lastHB = c.tickNum
	if a.commit > f.commitSeq {
		f.commitSeq = a.commit
	}
	if a.resync {
		return f.onResync(a)
	}
	last := f.seq()
	if a.probe || a.prevSeq != last {
		// Position report: the leader reconciles its match index (or orders
		// a resync when the epochs cannot be proven to agree).
		return appendReply{epoch: f.epoch, lastSeq: last, lastEpoch: f.lastRecEpoch}
	}
	if a.prevSeq > 0 && a.prevEpoch > 0 && f.lastRecEpoch > 0 && !epochMatches(a.prevEpoch, f.lastRecEpoch) {
		f.lastFault = fmt.Errorf("%w: record #%d is epoch %d here, epoch %d on leader %d",
			ErrDivergedLog, a.prevSeq, f.lastRecEpoch, a.prevEpoch, a.leader)
		return appendReply{epoch: f.epoch, resync: true}
	}
	for _, rec := range a.recs {
		if err := f.plane.ApplyReplicated(rec); err != nil {
			if errors.Is(err, wal.ErrSeqGap) {
				return appendReply{epoch: f.epoch, lastSeq: f.seq(), lastEpoch: f.lastRecEpoch}
			}
			f.lastFault = fmt.Errorf("%w: %v", ErrDivergedLog, err)
			return appendReply{epoch: f.epoch, resync: true}
		}
		if rec.Epoch > 0 {
			f.lastRecEpoch = rec.Epoch
		}
		c.metrics.shipped++
	}
	return appendReply{epoch: f.epoch, ok: true, lastSeq: f.seq(), lastEpoch: f.lastRecEpoch}
}

// onResync rebuilds the follower's durable state as a byte-copy of the
// leader's: wipe the directory, install the leader's checkpoint and log
// suffix, then rebuild the plane through ctrl.Recover — catch-up reuses
// exactly the recovery machinery, so a resynced follower is
// indistinguishable from a recovered one.
func (f *Node) onResync(a appendArgs) appendReply {
	if f.plane != nil && f.plane.WAL() != nil {
		_ = f.plane.WAL().Close()
	}
	fail := func(err error) appendReply {
		f.lastFault = fmt.Errorf("cluster: resync: %w", err)
		return appendReply{epoch: f.epoch, resync: true}
	}
	if err := os.RemoveAll(f.dir); err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return fail(err)
	}
	if len(a.ckBody) > 0 {
		if err := wal.WriteCheckpoint(f.dir, a.ckSeq, a.ckBody); err != nil {
			return fail(err)
		}
	}
	l, err := wal.Open(f.dir, f.c.opts.WAL)
	if err != nil {
		return fail(err)
	}
	f.lastRecEpoch = 0
	for _, rec := range a.recs {
		if _, err := l.AppendReplica(rec); err != nil {
			l.Close()
			return fail(err)
		}
		if rec.Epoch > 0 {
			f.lastRecEpoch = rec.Epoch
		}
	}
	if err := l.Close(); err != nil {
		return fail(err)
	}
	p, _, err := ctrl.Recover(f.dir, core.Config{}, f.c.opts.WAL, f.c.opts.Prep)
	if err != nil {
		return fail(err)
	}
	f.plane = p
	p.SetLogEpoch(f.epoch)
	f.saveEpoch()
	f.lastFault = nil
	f.c.metrics.resyncs++
	return appendReply{epoch: f.epoch, ok: true, lastSeq: f.seq(), lastEpoch: f.lastRecEpoch}
}

// onAppendReply is the leader half: reconcile the follower's reported
// position and advance the fleet commit point.
func (n *Node) onAppendReply(fid int, r appendReply) {
	c := n.c
	n.inflight[fid] = false
	n.lastOK[fid] = c.tickNum
	n.backoff[fid] = 0
	n.nextSend[fid] = c.tickNum + heartbeatEvery
	if r.stale {
		// A higher epoch exists: step down and wait for its leader.
		n.epoch = r.epoch
		if epochStale(n.votedEpoch, r.epoch) {
			n.votedEpoch = r.epoch
		}
		n.role = RoleFollower
		n.leaderID = -1
		n.lastHB = c.tickNum
		n.saveEpoch()
		return
	}
	if r.resync {
		n.needResync[fid] = true
		n.probed[fid] = true
		return
	}
	if r.ok {
		n.probed[fid] = true
		n.needResync[fid] = false
		n.match[fid] = r.lastSeq
		n.recomputeCommit()
		return
	}
	// Position report: prove the follower's prefix is ours before adopting
	// it as the match index. A follower ahead of us, past our cache floor,
	// or disagreeing on the epoch at its tip holds a diverged suffix.
	if r.lastSeq > n.seq() {
		n.needResync[fid] = true
		n.probed[fid] = true
		return
	}
	if r.lastSeq > 0 {
		tipEpoch, known := n.epochOf(r.lastSeq)
		if !known || (tipEpoch > 0 && r.lastEpoch > 0 && !epochMatches(tipEpoch, r.lastEpoch)) {
			n.needResync[fid] = true
			n.probed[fid] = true
			return
		}
	}
	n.match[fid] = r.lastSeq
	n.probed[fid] = true
	n.needResync[fid] = false
}

// recomputeCommit advances the commit point to the highest sequence number
// replicated on a majority of the fleet (the leader's own log included).
func (n *Node) recomputeCommit() {
	c := n.c
	seqs := make([]uint64, 0, len(c.nodes))
	seqs = append(seqs, n.seq())
	for _, f := range c.nodes {
		if f.id != n.id {
			seqs = append(seqs, n.match[f.id])
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	if q := seqs[c.majority()-1]; q > n.commitSeq {
		n.commitSeq = q
	}
}

// --- election -------------------------------------------------------------

// maybeElect runs one election attempt for a follower whose heartbeat
// timer expired. Only the most-caught-up reachable node candidates (ties
// break to the lowest id); it needs votes from a majority of the full
// fleet, each granted at most once per epoch. A node that cannot win and
// sees no leader long enough degrades to read-only.
func (f *Node) maybeElect() {
	c := f.c
	timeout := electionTimeout + int64(f.id) // deterministic stagger
	if c.tickNum-f.lastHB <= timeout || c.tickNum-f.lastElect < electionTimeout {
		return
	}
	f.lastElect = c.tickNum
	c.metrics.elections++

	// Poll reachable peers (drops apply: a peer lost to the fabric is a
	// peer whose state cannot be counted).
	var reach []*Node
	bestID, bestSeq := f.id, f.seq()
	maxEpoch := f.epoch
	for _, p := range c.nodes {
		if p.id == f.id || !p.alive {
			continue
		}
		if _, ok := c.net.Send(f.id, p.id); !ok {
			continue
		}
		reach = append(reach, p)
		if epochAdvanced(p.epoch, maxEpoch) {
			maxEpoch = p.epoch
		}
		if p.role == RoleLeader && !epochStale(p.epoch, f.epoch) {
			// A live reachable leader exists; our timeout was message loss.
			f.lastHB = c.tickNum
			return
		}
		if s := p.seq(); s > bestSeq || (s == bestSeq && p.id < bestID) {
			bestID, bestSeq = p.id, s
		}
	}
	if bestID != f.id {
		// Promotion rule: yield to the most-caught-up node; it will run its
		// own election. If no one wins for long enough, degrade.
		f.maybeDegrade()
		return
	}
	newEpoch := maxEpoch + 1
	votes := 1
	mySeq := f.seq()
	for _, p := range reach {
		if epochAdvanced(newEpoch, p.epoch) && epochAdvanced(newEpoch, p.votedEpoch) && mySeq >= p.seq() {
			p.votedEpoch = newEpoch
			p.saveEpoch()
			votes++
		}
	}
	if votes >= c.majority() {
		c.promote(f, newEpoch)
		return
	}
	f.maybeDegrade()
}

// maybeDegrade drops a leaderless follower to read-only once it has gone
// without a leader for degradeTimeout ticks.
func (f *Node) maybeDegrade() {
	c := f.c
	if f.role == RoleFollower && c.tickNum-f.lastHB > degradeTimeout {
		f.role = RoleDegraded
		f.lastFault = fmt.Errorf("%w: no leader heard for %d ticks", ErrPartitioned, c.tickNum-f.lastHB)
		c.metrics.degrades++
	}
}
