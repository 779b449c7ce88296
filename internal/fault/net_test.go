package fault

import "testing"

// TestNetworkPartition: links within a group deliver, links across groups
// do not, and Heal restores everything.
func TestNetworkPartition(t *testing.T) {
	n := NewNetwork(1)
	n.SetPartition([]int{0, 1}, []int{2})

	if _, ok := n.Send(0, 1); !ok {
		t.Fatal("intra-group send dropped")
	}
	if _, ok := n.Send(0, 2); ok {
		t.Fatal("cross-partition send delivered")
	}
	if n.Reachable(0, 2) {
		t.Fatal("cross-partition link reported reachable")
	}
	n.Heal()
	if _, ok := n.Send(0, 2); !ok {
		t.Fatal("healed send dropped")
	}
	if !n.Reachable(0, 2) {
		t.Fatal("healed link not reachable")
	}
}

// TestNetworkImplicitGroup: nodes not named in any partition group share
// the implicit group and stay connected to each other, but not to the
// named groups.
func TestNetworkImplicitGroup(t *testing.T) {
	n := NewNetwork(1)
	n.SetPartition([]int{0})
	if _, ok := n.Send(1, 2); !ok {
		t.Fatal("unlisted nodes lost connectivity to each other")
	}
	if _, ok := n.Send(0, 1); ok {
		t.Fatal("isolated node still reaches the rest")
	}
}

// TestNetworkDrop: drop probabilities are honored statistically and
// deterministically per seed.
func TestNetworkDrop(t *testing.T) {
	n := NewNetwork(7)
	n.SetDropAll(1)
	if _, ok := n.Send(0, 1); ok {
		t.Fatal("p=1 fabric delivered")
	}

	n.SetDropAll(0.5)
	delivered := 0
	for i := 0; i < 1000; i++ {
		if _, ok := n.Send(2, 3); ok {
			delivered++
		}
	}
	if delivered < 350 || delivered > 650 {
		t.Fatalf("p=0.5 delivered %d/1000", delivered)
	}
	sends, drops := n.Stats()
	if sends == 0 || drops == 0 {
		t.Fatalf("stats sends=%d drops=%d", sends, drops)
	}
}

// TestNetworkDelay: per-link delays apply to that direction only.
func TestNetworkDelay(t *testing.T) {
	n := NewNetwork(1)
	n.SetLinkDelay(0, 1, 5)
	if d, ok := n.Send(0, 1); !ok || d != 5 {
		t.Fatalf("delay = %d ok=%v, want 5", d, ok)
	}
	if d, ok := n.Send(1, 0); !ok || d != 0 {
		t.Fatalf("reverse delay = %d ok=%v, want 0", d, ok)
	}
}

// TestNetworkDeterminism: the same seed yields the same drop sequence.
func TestNetworkDeterminism(t *testing.T) {
	run := func() []bool {
		n := NewNetwork(99)
		n.SetDropAll(0.3)
		out := make([]bool, 200)
		for i := range out {
			_, out[i] = n.Send(0, 1)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("drop sequence diverged at %d", i)
		}
	}
}

// TestNetworkNil: a nil network is a perfect fabric (the no-chaos default).
func TestNetworkNil(t *testing.T) {
	var n *Network
	if d, ok := n.Send(0, 1); !ok || d != 0 {
		t.Fatalf("nil network send = (%d, %v)", d, ok)
	}
	if !n.Reachable(0, 1) {
		t.Fatal("nil network unreachable")
	}
}
