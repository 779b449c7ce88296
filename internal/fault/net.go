package fault

import (
	"math/rand"
	"sync"
)

// Network fault injection for the replicated control plane
// (internal/cluster): models the message fabric between fleet nodes with
// the failure modes log shipping has to survive — partitions, seeded
// message drops, and per-link latency (a lagging follower is a link with
// delay). Reordering is produced one level up: the cluster delivers each
// tick's due messages in a seeded-shuffled order, so a lossy, laggy link
// also reorders. Like the rest of this package, every decision is drawn
// from a seeded source, so a given seed reproduces the exact same failure
// timeline on every run.

// link addresses one directed node pair.
type netLink struct{ from, to int }

// Network is the injectable message fabric. A nil *Network delivers
// everything instantly — the clean-fabric default.
type Network struct {
	mu  sync.Mutex
	rng *rand.Rand

	group   map[int]int // partition group per node; empty: fully connected
	dropAll float64
	delay   map[netLink]int64

	sends int64
	drops int64
}

// NewNetwork builds a clean fabric with a deterministic seed.
func NewNetwork(seed int64) *Network {
	return &Network{
		rng:   rand.New(rand.NewSource(seed)),
		group: make(map[int]int),
		delay: make(map[netLink]int64),
	}
}

// SetPartition splits the fleet into the given groups: nodes in different
// groups cannot exchange messages. Nodes not listed in any group land in an
// implicit extra group of their own (fully isolated from the listed ones,
// connected to each other).
func (n *Network) SetPartition(groups ...[]int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.group = make(map[int]int)
	for g, nodes := range groups {
		for _, id := range nodes {
			n.group[id] = g + 1
		}
	}
}

// Heal removes the partition; drops and delays stay in force.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.group = make(map[int]int)
}

// SetDropAll sets a fabric-wide drop probability applied to every link.
func (n *Network) SetDropAll(prob float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dropAll = prob
}

// SetLinkDelay makes the directed link from→to deliver with a fixed delay
// in ticks — the lagging-follower injection.
func (n *Network) SetLinkDelay(from, to int, ticks int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.delay[netLink{from, to}] = ticks
}

// Reachable reports whether a and b sit in the same partition group. A nil
// network is fully connected.
func (n *Network) Reachable(a, b int) bool {
	if n == nil {
		return true
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.group[a] == n.group[b]
}

// Send decides the fate of one message from→to at send time: ok=false
// means the message is lost (partition or seeded drop); otherwise delay is
// the extra delivery latency in ticks. A nil network delivers instantly.
func (n *Network) Send(from, to int) (delay int64, ok bool) {
	if n == nil {
		return 0, true
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.sends++
	if n.group[from] != n.group[to] {
		n.drops++
		return 0, false
	}
	if n.dropAll > 0 && n.rng.Float64() < n.dropAll {
		n.drops++
		return 0, false
	}
	return n.delay[netLink{from, to}], true
}

// Stats reports how many messages were offered and how many were lost.
func (n *Network) Stats() (sends, drops int64) {
	if n == nil {
		return 0, 0
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sends, n.drops
}
