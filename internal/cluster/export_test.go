package cluster

import (
	"errors"
	"fmt"

	"rmtk/internal/ctrl"
)

// Write and read paths only tests take: a proposal fenced by epoch or
// pinned to one node, and one node's routing table read back.

// ErrStaleEpoch is wrapped when a fenced proposal carries an epoch older
// than the current leader's — leadership changed under the caller, who must
// re-read cluster state before retrying.
var ErrStaleEpoch = errors.New("cluster: stale leader epoch")

// ProposeFenced is Propose with epoch fencing: the caller passes the leader
// epoch it believes current, and the write is refused with wrapped
// ErrStaleEpoch if leadership has moved on.
func (c *Cluster) ProposeFenced(epoch uint64, fn func(*ctrl.Plane) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.leaderLocked()
	if n == nil {
		return fmt.Errorf("%w: no live leader", ErrNotLeader)
	}
	if !epochMatches(n.epoch, epoch) {
		return fmt.Errorf("%w: proposed under epoch %d, leader is at %d", ErrStaleEpoch, epoch, n.epoch)
	}
	return fn(n.plane)
}

// ProposeAt runs fn against one specific node, as a client pinned to a
// replica would. Followers and degraded nodes refuse writes: wrapped
// ErrNotLeader (redirect to leaderID) and ErrPartitioned respectively.
func (c *Cluster) ProposeAt(id int, fn func(*ctrl.Plane) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.nodes[id]
	if !n.alive {
		return fmt.Errorf("%w: node %d is down", ErrNotLeader, id)
	}
	switch n.role {
	case RoleLeader:
		return fn(n.plane)
	case RoleDegraded:
		return fmt.Errorf("%w: node %d refuses writes", ErrPartitioned, id)
	default:
		return fmt.Errorf("%w: node %d follows node %d", ErrNotLeader, id, n.leaderID)
	}
}

// RouteTargets reads back the routing table's key->program mapping on one
// node.
func (c *Cluster) RouteTargets(id int, tableName string) (map[uint64]int64, error) {
	c.mu.Lock()
	n := c.nodes[id]
	alive, plane := n.alive, n.plane
	c.mu.Unlock()
	if !alive {
		return nil, fmt.Errorf("%w: node %d is down", ErrNotLeader, id)
	}
	tbl, _, err := plane.K.TableByName(tableName)
	if err != nil {
		return nil, err
	}
	out := make(map[uint64]int64)
	for _, e := range tbl.Entries() {
		out[e.Key] = e.Action.ProgID
	}
	return out, nil
}

// One node's role, epoch and plane, as the replication tests read them.

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
