package fault

import (
	"errors"
	"testing"
)

func TestScheduleDeterminism(t *testing.T) {
	rules := []Rule{
		{Target: "mm/x", Kind: KindVMTrap, Start: 2, Count: 3, Every: 2},
		{Target: "mm/x", Kind: KindLatencySpike, Start: 4, Every: 4, LatencyNs: 100},
	}
	collect := func() []string {
		inj := NewInjector(7, rules...)
		var got []string
		for i := 0; i < 12; i++ {
			out := inj.Check("mm/x")
			switch {
			case out == nil:
				got = append(got, ".")
			case out.Trap && out.LatencyNs > 0:
				got = append(got, "T+L")
			case out.Trap:
				got = append(got, "T")
			default:
				got = append(got, "L")
			}
		}
		return got
	}
	a, b := collect(), collect()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic schedule at %d: %v vs %v", i, a, b)
		}
	}
	// Traps at 2, 4, 6 (count 3); latency at 4, 8, ...
	want := []string{".", ".", "T", ".", "T+L", ".", "T", ".", "L", ".", ".", "."}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("index %d: got %q want %q (full %v)", i, a[i], want[i], a)
		}
	}
}

func TestTargetsIndependent(t *testing.T) {
	inj := NewInjector(1, Rule{Target: "a", Kind: KindVMTrap, Every: 1})
	if out := inj.Check("b"); out != nil {
		t.Fatalf("rule for target a struck target b: %+v", out)
	}
	out := inj.Check("a")
	if out == nil || !out.Trap {
		t.Fatalf("expected trap on target a, got %+v", out)
	}
	if !errors.Is(out.TrapErr, ErrInjectedTrap) {
		t.Fatalf("trap error %v does not wrap ErrInjectedTrap", out.TrapErr)
	}
	if inj.index["a"] != 1 || inj.index["b"] != 1 {
		t.Fatalf("fires a=%d b=%d, want 1/1", inj.index["a"], inj.index["b"])
	}
}

func TestKindsAndCounters(t *testing.T) {
	inj := NewInjector(3,
		Rule{Kind: KindHelperError, Start: 0, Count: 1},
		Rule{Kind: KindModelSwapFail, Start: 1, Count: 1},
		Rule{Kind: KindCorruptVerdict, Start: 2, Count: 1},
	)
	o0 := inj.Check("h")
	if o0 == nil || o0.HelperErr == nil || !errors.Is(o0.HelperErr, ErrInjectedHelper) {
		t.Fatalf("fire 0: want helper error, got %+v", o0)
	}
	o1 := inj.Check("h")
	if o1 == nil || o1.SwapErr == nil || !errors.Is(o1.SwapErr, ErrInjectedSwap) {
		t.Fatalf("fire 1: want swap error, got %+v", o1)
	}
	o2 := inj.Check("h")
	if o2 == nil || !o2.Corrupt {
		t.Fatalf("fire 2: want corruption, got %+v", o2)
	}
	if inj.Check("h") != nil {
		t.Fatal("fire 3: want clean")
	}
	total := int64(0)
	for k := Kind(0); k < numKinds; k++ {
		total += inj.Injected(k)
	}
	if total != 3 || inj.Injected(KindHelperError) != 1 || inj.Injected(KindCorruptVerdict) != 1 {
		t.Fatalf("counters off: total=%d", total)
	}
}

func TestProbabilisticGateSeeded(t *testing.T) {
	count := func(seed int64) int {
		inj := NewInjector(seed, Rule{Kind: KindVMTrap, Every: 1, Prob: 0.5})
		n := 0
		for i := 0; i < 1000; i++ {
			if out := inj.Check("x"); out != nil && out.Trap {
				n++
			}
		}
		return n
	}
	a, b := count(42), count(42)
	if a != b {
		t.Fatalf("same seed, different counts: %d vs %d", a, b)
	}
	if a < 350 || a > 650 {
		t.Fatalf("p=0.5 over 1000 fires injected %d times", a)
	}
}

func TestNilInjectorIsClean(t *testing.T) {
	var inj *Injector
	if out := inj.Check("x"); out != nil {
		t.Fatalf("nil injector produced %+v", out)
	}
}
