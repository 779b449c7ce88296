package isa

import (
	"math"
	"testing"
)

func TestIntervalBasics(t *testing.T) {
	if !TopInterval().IsTop() || TopInterval().IsPoint() {
		t.Fatal("TopInterval misclassified")
	}
	if !Point(7).IsPoint() || !Point(7).Contains(7) || Point(7).Contains(8) {
		t.Fatal("Point misclassified")
	}
	if got := Range(1, 5).Union(Range(3, 9)); got != Range(1, 9) {
		t.Fatalf("union = %s", got)
	}
	if m, ok := Range(1, 5).Intersect(Range(3, 9)); !ok || m != Range(3, 5) {
		t.Fatalf("intersect = %s, %v", m, ok)
	}
	if _, ok := Range(1, 2).Intersect(Range(3, 4)); ok {
		t.Fatal("disjoint intervals must not intersect")
	}
	if !Range(0, 10).ContainsInterval(Range(3, 7)) || Range(0, 10).ContainsInterval(Range(3, 11)) {
		t.Fatal("ContainsInterval wrong")
	}
}

// TestIntervalWrapCornersWidenToTop: every transfer function must widen to
// Top instead of modeling Go's wrapping semantics.
func TestIntervalWrapCornersWidenToTop(t *testing.T) {
	minPt := Point(math.MinInt64)
	maxPt := Point(math.MaxInt64)
	cases := []struct {
		name string
		got  Interval
	}{
		{"add overflow", maxPt.Add(Point(1))},
		{"sub overflow", minPt.Sub(Point(1))},
		{"mul overflow", maxPt.Mul(Point(2))},
		{"mul MinInt64 * -1", minPt.Mul(Point(-1))},
		{"div MinInt64 / -1", minPt.Div(Point(-1))},
		{"neg MinInt64", minPt.Neg()},
		{"abs MinInt64", minPt.Abs()},
		{"shl overflow", maxPt.Shl(Point(1))},
		{"shl amount out of range", Point(1).Shl(Point(64))},
		{"div by zero-containing divisor", Point(10).Div(Range(-1, 1))},
		{"mod by zero-containing divisor", Point(10).Mod(Range(-1, 1))},
	}
	for _, c := range cases {
		if !c.got.IsTop() {
			t.Errorf("%s: got %s, want Top", c.name, c.got)
		}
	}
}

func TestIntervalArithmeticPrecision(t *testing.T) {
	cases := []struct {
		name      string
		got, want Interval
	}{
		{"add", Range(1, 3).Add(Range(10, 20)), Range(11, 23)},
		{"sub", Range(1, 3).Sub(Range(10, 20)), Range(-19, -7)},
		{"mul mixed signs", Range(-2, 3).Mul(Range(-5, 4)), Range(-15, 12)},
		{"div positive divisor", Range(-10, 10).Div(Range(2, 5)), Range(-5, 5)},
		{"div negative divisor", Range(10, 20).Div(Point(-3)), Range(-6, -3)},
		{"mod nonneg dividend", Range(0, 100).Mod(Point(7)), Range(0, 6)},
		{"mod small dividend", Range(0, 3).Mod(Point(7)), Range(0, 3)},
		{"mod neg dividend", Range(-100, 0).Mod(Point(7)), Range(-6, 0)},
		{"mod mixed dividend", Range(-5, 5).Mod(Point(3)), Range(-2, 2)},
		{"and nonneg", Range(0, 12).And(Range(0, 5)), Range(0, 5)},
		{"or nonneg", Range(1, 4).Or(Range(2, 5)), Range(2, 7)},
		{"xor nonneg", Range(0, 4).Xor(Range(0, 5)), Range(0, 7)},
		{"shl", Range(1, 3).Shl(Point(2)), Range(4, 12)},
		{"shr", Range(-8, 8).Shr(Point(1)), Range(-4, 4)},
		{"neg", Range(-3, 5).Neg(), Range(-5, 3)},
		{"abs straddling", Range(-7, 3).Abs(), Range(0, 7)},
		{"abs negative", Range(-7, -3).Abs(), Range(3, 7)},
		{"min", Range(1, 10).Min(Range(4, 6)), Range(1, 6)},
		{"max", Range(1, 10).Max(Range(4, 6)), Range(4, 10)},
		{"clamp", Range(-100, 100).Clamp(8), Range(-8, 8)},
		{"clamp negative lim", Range(-100, 100).Clamp(-8), Range(-8, 8)},
		{"clamp one-sided", Range(20, 30).Clamp(8), Point(8)},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, c.got, c.want)
		}
	}
	if got := Range(-100, 100).Clamp(math.MinInt64); got != Point(math.MinInt64) {
		t.Errorf("clamp MinInt64: got %s (|MinInt64| wraps; the VM pins to MinInt64)", got)
	}
}

func TestMulOverflowsMatchesMul(t *testing.T) {
	cases := []struct {
		a, b Interval
		want bool
	}{
		{Range(0, 1<<31), Range(0, 1<<31), false},
		{Range(0, 1<<32), Range(0, 1<<32), true},
		{Point(math.MinInt64), Point(-1), true},
		{Range(-10, 10), Range(-10, 10), false},
	}
	for _, c := range cases {
		if got := c.a.MulOverflows(c.b); got != c.want {
			t.Errorf("%s.MulOverflows(%s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestNarrowBoundaries pins the fencepost behavior of branch narrowing at
// interval endpoints — the exact cases where an off-by-one would make the
// verifier either unsound (too narrow) or useless (too wide).
func TestNarrowBoundaries(t *testing.T) {
	cases := []struct {
		name     string
		rel      Rel
		a, b     Interval
		wantA    Interval
		wantB    Interval
		feasible bool
	}{
		{"eq overlap", RelEq, Range(0, 10), Range(5, 20), Range(5, 10), Range(5, 10), true},
		{"eq disjoint", RelEq, Range(0, 4), Range(5, 20), Range(0, 4), Range(5, 20), false},
		{"ne same point", RelNe, Point(3), Point(3), Point(3), Point(3), false},
		{"ne trims endpoint", RelNe, Range(0, 10), Point(0), Range(1, 10), Point(0), true},
		{"ne trims high endpoint", RelNe, Range(0, 10), Point(10), Range(0, 9), Point(10), true},
		{"ne interior untouched", RelNe, Range(0, 10), Point(5), Range(0, 10), Point(5), true},
		{"lt strict", RelLt, Range(0, 10), Range(5, 8), Range(0, 7), Range(5, 8), true},
		{"lt infeasible at boundary", RelLt, Range(8, 10), Range(0, 8), Range(8, 10), Range(0, 8), false},
		{"le feasible at boundary", RelLe, Range(8, 10), Range(0, 8), Point(8), Point(8), true},
		{"le infeasible", RelLe, Range(9, 10), Range(0, 8), Range(9, 10), Range(0, 8), false},
		{"gt floors a", RelGt, Range(0, 10), Point(0), Range(1, 10), Point(0), true},
		{"gt infeasible", RelGt, Range(0, 5), Range(5, 9), Range(0, 5), Range(5, 9), false},
		{"ge keeps boundary", RelGe, Range(0, 10), Point(0), Range(0, 10), Point(0), true},
	}
	for _, c := range cases {
		na, nb, feasible := Narrow(c.rel, c.a, c.b)
		if feasible != c.feasible {
			t.Errorf("%s: feasible = %v, want %v", c.name, feasible, c.feasible)
			continue
		}
		if !feasible {
			continue
		}
		if na != c.wantA || nb != c.wantB {
			t.Errorf("%s: narrowed to %s, %s; want %s, %s", c.name, na, nb, c.wantA, c.wantB)
		}
	}
}

// TestNegateIsComplement: for every relation and a sample of intervals,
// Narrow calls an edge infeasible exactly when no concrete pair satisfies
// the relation. Every pair then satisfies the negation, so narrowing the
// negation must keep both intervals whole.
func TestNegateIsComplement(t *testing.T) {
	holds := func(r Rel, x, y int64) bool {
		switch r {
		case RelEq:
			return x == y
		case RelNe:
			return x != y
		case RelGt:
			return x > y
		case RelGe:
			return x >= y
		case RelLt:
			return x < y
		default: // RelLe
			return x <= y
		}
	}
	rels := []Rel{RelEq, RelNe, RelGt, RelGe, RelLt, RelLe}
	samples := []Interval{Point(0), Point(5), Range(0, 5), Range(3, 8), Range(-4, -1)}
	for _, r := range rels {
		for _, a := range samples {
			for _, b := range samples {
				some := false
				for x := a.Lo; x <= a.Hi; x++ {
					for y := b.Lo; y <= b.Hi; y++ {
						some = some || holds(r, x, y)
					}
				}
				_, _, feasible := Narrow(r, a, b)
				if feasible != some {
					t.Errorf("rel %v on %s,%s: feasible=%v, but a satisfying pair exists=%v", r, a, b, feasible, some)
				}
				if feasible {
					continue
				}
				if na, nb, ok := Narrow(r.Negate(), a, b); !ok || na != a || nb != b {
					t.Errorf("rel %v never holds on %s,%s, but its negation narrows to %s,%s (feasible=%v)", r, a, b, na, nb, ok)
				}
			}
		}
	}
}
