package dp

import (
	"errors"
	"math"
	"testing"
)

func TestBudgetAccounting(t *testing.T) {
	a, err := NewAccountant(1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Remaining() != 1.0 {
		t.Fatal("fresh accountant wrong")
	}
	if _, err := a.QueryCount(100, 0.4); err != nil {
		t.Fatal(err)
	}
	if spent := 1.0 - a.Remaining(); math.Abs(spent-0.4) > 1e-12 {
		t.Fatalf("remaining %v spent %v", a.Remaining(), spent)
	}

	// A budget of 10 holds exactly 200 queries at epsilon 0.05: the last
	// one is answered, the next refused, and nothing is left over.
	a, err = NewAccountant(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for ; n < 201; n++ {
		if _, err := a.QueryCount(1, 0.05); err != nil {
			if !errors.Is(err, ErrBudgetExhausted) {
				t.Fatal(err)
			}
			break
		}
	}
	if n != 200 || a.Remaining() != 0 {
		t.Fatalf("answered %d queries at epsilon 0.05 of 10 (remaining %v), want 200 leaving 0",
			n, a.Remaining())
	}

	// A budget past the books' range (about 9.2e9 epsilon) is capped there,
	// not refused, and still answers queries.
	a, err = NewAccountant(1e12, 1)
	if err != nil {
		t.Fatal(err)
	}
	before, opening := a.Remaining(), a.budget
	if before > 1e12 || before < 9e9 {
		t.Fatalf("budget 1e12 kept as %v, want the cap near 9.2e9", before)
	}
	if _, err := a.QueryCount(1000, 1e-6); err != nil {
		t.Fatal(err)
	}
	// In the books' units: at this budget's magnitude a float64 difference
	// of two Remaining readings cannot resolve 1e-6.
	if spent := epsilonOf(opening - a.budget); spent != 1e-6 {
		t.Fatalf("spent %v of a capped budget, want 1e-6", spent)
	}
}

// TestChargeMatchesNoise: a query is charged the epsilon its noise is drawn
// at, even when the asked-for epsilon falls between two units of the books:
// 1.4e-9 is charged one unit, 1e-9, so its answers must be those of 1e-9.
func TestChargeMatchesNoise(t *testing.T) {
	asked, _ := NewAccountant(1, 3)
	exact, _ := NewAccountant(1, 3)
	for i := 0; i < 20; i++ {
		va, err := asked.Query(0, 1, 1.4e-9)
		if err != nil {
			t.Fatal(err)
		}
		ve, err := exact.Query(0, 1, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		if va != ve {
			t.Fatalf("query %d: epsilon 1.4e-9 answered %v, but the epsilon it was charged answers %v", i, va, ve)
		}
	}
	if asked.Remaining() != exact.Remaining() {
		t.Fatalf("epsilon 1.4e-9 left %v, 1e-9 left %v", asked.Remaining(), exact.Remaining())
	}
}

func TestBudgetExhaustion(t *testing.T) {
	a, _ := NewAccountant(0.5, 1)
	if _, err := a.QueryCount(1, 0.5); err != nil {
		t.Fatal(err)
	}
	_, err := a.QueryCount(1, 0.01)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v", err)
	}
	// A failed query must not consume budget.
	if a.Remaining() != 0 {
		t.Fatalf("remaining = %v", a.Remaining())
	}
}

func TestBadParameters(t *testing.T) {
	if _, err := NewAccountant(0, 1); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, err := NewAccountant(math.NaN(), 1); err == nil {
		t.Fatal("NaN budget accepted")
	}
	a, _ := NewAccountant(1, 1)
	if _, err := a.Query(1, 0, 0.1); err == nil {
		t.Fatal("zero sensitivity accepted")
	}
	if _, err := a.Query(1, 1, 0); err == nil {
		t.Fatal("zero epsilon accepted")
	}
}

// TestNoiseScale: the empirical mean absolute Laplace noise approaches
// sensitivity/epsilon (the distribution's mean |x| = b).
func TestNoiseScale(t *testing.T) {
	for _, eps := range []float64{0.5, 2.0} {
		a, _ := NewAccountant(1e9, 42)
		const truth = 0.0
		n := 4000
		sum := 0.0
		for i := 0; i < n; i++ {
			v, err := a.Query(truth, 1, eps)
			if err != nil {
				t.Fatal(err)
			}
			sum += math.Abs(v)
		}
		got := sum / float64(n)
		want := 1 / eps
		if got < want*0.85 || got > want*1.15 {
			t.Fatalf("eps=%v mean |noise| = %v, want ~%v", eps, got, want)
		}
	}
}

// TestNoiseDecreasesWithEpsilon: larger epsilon (more budget spent per
// query) means less noise.
func TestNoiseDecreasesWithEpsilon(t *testing.T) {
	meanErr := func(eps float64) float64 {
		a, _ := NewAccountant(1e9, 7)
		sum := 0.0
		for i := 0; i < 2000; i++ {
			v, _ := a.Query(0, 1, eps)
			sum += math.Abs(v)
		}
		return sum / 2000
	}
	if meanErr(2.0) >= meanErr(0.1) {
		t.Fatal("noise did not shrink with epsilon")
	}
}

func TestDeterministicNoise(t *testing.T) {
	a, _ := NewAccountant(10, 5)
	b, _ := NewAccountant(10, 5)
	for i := 0; i < 10; i++ {
		va, _ := a.QueryCount(50, 0.1)
		vb, _ := b.QueryCount(50, 0.1)
		if va != vb {
			t.Fatal("same seed, different noise")
		}
	}
}
