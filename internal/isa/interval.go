package isa

import (
	"fmt"
	"math"
	"math/bits"
)

// Interval is a closed range [Lo, Hi] of int64 values — the value-range
// abstract domain of the verifier's abstract interpreter. An Interval is never empty: operations
// that would produce an empty range (infeasible branch narrowing) report
// that through a feasibility flag instead.
//
// All transfer functions are sound over-approximations of the VM's concrete
// int64 semantics, including Go's wrapping behavior: any operation that can
// wrap (overflow, MinInt64 negation, MinInt64 / -1) widens to Top rather
// than modeling the wrap.
type Interval struct {
	Lo, Hi int64
}

// TopInterval returns the full range [MinInt64, MaxInt64].
func TopInterval() Interval { return Interval{math.MinInt64, math.MaxInt64} }

// Point returns the singleton interval [v, v].
func Point(v int64) Interval { return Interval{v, v} }

// Range returns [lo, hi]; it panics if lo > hi (caller bug).
func Range(lo, hi int64) Interval {
	if lo > hi {
		panic(fmt.Sprintf("isa: empty interval [%d,%d]", lo, hi))
	}
	return Interval{lo, hi}
}

// IsTop reports whether the interval carries no information.
func (a Interval) IsTop() bool { return a.Lo == math.MinInt64 && a.Hi == math.MaxInt64 }

// IsPoint reports whether the interval is a single value.
func (a Interval) IsPoint() bool { return a.Lo == a.Hi }

// Contains reports whether v lies in the interval.
func (a Interval) Contains(v int64) bool { return a.Lo <= v && v <= a.Hi }

// ContainsInterval reports whether b lies entirely within a.
func (a Interval) ContainsInterval(b Interval) bool { return a.Lo <= b.Lo && b.Hi <= a.Hi }

// Union returns the smallest interval covering both operands (the join of
// the domain).
func (a Interval) Union(b Interval) Interval {
	if b.Lo < a.Lo {
		a.Lo = b.Lo
	}
	if b.Hi > a.Hi {
		a.Hi = b.Hi
	}
	return a
}

// Intersect returns the overlap of the operands; ok is false when they are
// disjoint (the result is then meaningless).
func (a Interval) Intersect(b Interval) (Interval, bool) {
	if b.Lo > a.Lo {
		a.Lo = b.Lo
	}
	if b.Hi < a.Hi {
		a.Hi = b.Hi
	}
	return a, a.Lo <= a.Hi
}

// String renders the interval compactly for reports and diagnostics.
func (a Interval) String() string {
	if a.IsTop() {
		return "[-inf,+inf]"
	}
	if a.IsPoint() {
		return fmt.Sprintf("[%d]", a.Lo)
	}
	lo, hi := "-inf", "+inf"
	if a.Lo != math.MinInt64 {
		lo = fmt.Sprintf("%d", a.Lo)
	}
	if a.Hi != math.MaxInt64 {
		hi = fmt.Sprintf("%d", a.Hi)
	}
	return fmt.Sprintf("[%s,%s]", lo, hi)
}

// Checked scalar arithmetic: ok is false when the operation overflows int64.

func addOv(a, b int64) (int64, bool) {
	s := a + b
	// Overflow iff operands share a sign that the sum does not.
	if (a >= 0 && b >= 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

func subOv(a, b int64) (int64, bool) {
	d := a - b
	if (b < 0 && d < a) || (b > 0 && d > a) {
		return 0, false
	}
	return d, true
}

func mulOv(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a || (a == math.MinInt64 && b == -1) || (b == math.MinInt64 && a == -1) {
		return 0, false
	}
	return p, true
}

func shlOv(a int64, s uint) (int64, bool) {
	r := a << s
	if r>>s != a {
		return 0, false
	}
	return r, true
}

// Add is the transfer function for a + b; it widens to Top on possible
// overflow.
func (a Interval) Add(b Interval) Interval {
	lo, ok1 := addOv(a.Lo, b.Lo)
	hi, ok2 := addOv(a.Hi, b.Hi)
	if !ok1 || !ok2 {
		return TopInterval()
	}
	return Interval{lo, hi}
}

// Sub is the transfer function for a - b.
func (a Interval) Sub(b Interval) Interval {
	lo, ok1 := subOv(a.Lo, b.Hi)
	hi, ok2 := subOv(a.Hi, b.Lo)
	if !ok1 || !ok2 {
		return TopInterval()
	}
	return Interval{lo, hi}
}

// Mul is the transfer function for a * b.
func (a Interval) Mul(b Interval) Interval {
	var lo, hi int64
	first := true
	for _, x := range [2]int64{a.Lo, a.Hi} {
		for _, y := range [2]int64{b.Lo, b.Hi} {
			p, ok := mulOv(x, y)
			if !ok {
				return TopInterval()
			}
			if first || p < lo {
				lo = p
			}
			if first || p > hi {
				hi = p
			}
			first = false
		}
	}
	return Interval{lo, hi}
}

// MulOverflows reports whether any product of values drawn from a and b can
// overflow int64 — the static no-overflow proof behind ProofNoOverflow.
func (a Interval) MulOverflows(b Interval) bool {
	for _, x := range [2]int64{a.Lo, a.Hi} {
		for _, y := range [2]int64{b.Lo, b.Hi} {
			if _, ok := mulOv(x, y); !ok {
				return true
			}
		}
	}
	return false
}

// Div is the transfer function for Go's truncated a / b. It is only defined
// when b excludes 0 (the caller proves divisor-nonzero first); a zero-
// containing divisor widens to Top. MinInt64 / -1 wraps in Go, so that
// corner also widens to Top.
func (a Interval) Div(b Interval) Interval {
	if b.Contains(0) {
		return TopInterval()
	}
	if a.Contains(math.MinInt64) && b.Contains(-1) {
		return TopInterval()
	}
	// With a single-signed divisor and no wrapping corner, truncated
	// division is componentwise monotone, so the extremes are at corners.
	var lo, hi int64
	first := true
	for _, x := range [2]int64{a.Lo, a.Hi} {
		for _, y := range [2]int64{b.Lo, b.Hi} {
			q := x / y
			if first || q < lo {
				lo = q
			}
			if first || q > hi {
				hi = q
			}
			first = false
		}
	}
	return Interval{lo, hi}
}

// Mod is the transfer function for Go's a % b (result takes the dividend's
// sign, |result| < |b|). Only defined when b excludes 0.
func (a Interval) Mod(b Interval) Interval {
	if b.Contains(0) {
		return TopInterval()
	}
	// Largest |remainder| is max(|b.Lo|, |b.Hi|) - 1; |MinInt64| saturates.
	m := int64(math.MaxInt64)
	if b.Lo != math.MinInt64 {
		la, lb := b.Lo, b.Hi
		if la < 0 {
			la = -la
		}
		if lb < 0 {
			lb = -lb
		}
		if lb > la {
			la = lb
		}
		m = la - 1
	}
	lo, hi := -m, m
	if a.Lo >= 0 {
		lo = 0
		if a.Hi < hi {
			hi = a.Hi // 0 <= x%y <= x for non-negative dividends
		}
	}
	if a.Hi <= 0 {
		hi = 0
		if a.Lo > lo {
			lo = a.Lo
		}
	}
	return Interval{lo, hi}
}

// And is the transfer function for a & b; precise bounds are only kept for
// non-negative operands.
func (a Interval) And(b Interval) Interval {
	if a.Lo < 0 || b.Lo < 0 {
		return TopInterval()
	}
	hi := a.Hi
	if b.Hi < hi {
		hi = b.Hi
	}
	return Interval{0, hi}
}

// Or is the transfer function for a | b (non-negative operands only).
func (a Interval) Or(b Interval) Interval {
	if a.Lo < 0 || b.Lo < 0 {
		return TopInterval()
	}
	return Interval{maxInt64(a.Lo, b.Lo), orBound(a.Hi, b.Hi)}
}

// Xor is the transfer function for a ^ b (non-negative operands only).
func (a Interval) Xor(b Interval) Interval {
	if a.Lo < 0 || b.Lo < 0 {
		return TopInterval()
	}
	return Interval{0, orBound(a.Hi, b.Hi)}
}

// orBound returns the largest value representable with the wider of the two
// operands' bit widths: an upper bound for both | and ^ of non-negative
// values.
func orBound(x, y int64) int64 {
	n := bits.Len64(uint64(x))
	if m := bits.Len64(uint64(y)); m > n {
		n = m
	}
	if n >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<n - 1
}

// Shl is the transfer function for a << (b & 63). The VM masks the shift
// amount, so a shift interval not contained in [0, 63] behaves unpredictably
// and widens to Top.
func (a Interval) Shl(b Interval) Interval {
	if !Range(0, 63).ContainsInterval(b) {
		return TopInterval()
	}
	var lo, hi int64
	first := true
	for _, x := range [2]int64{a.Lo, a.Hi} {
		for _, s := range [2]int64{b.Lo, b.Hi} {
			v, ok := shlOv(x, uint(s))
			if !ok {
				return TopInterval()
			}
			if first || v < lo {
				lo = v
			}
			if first || v > hi {
				hi = v
			}
			first = false
		}
	}
	return Interval{lo, hi}
}

// Shr is the transfer function for the arithmetic shift a >> (b & 63).
func (a Interval) Shr(b Interval) Interval {
	if !Range(0, 63).ContainsInterval(b) {
		return TopInterval()
	}
	var lo, hi int64
	first := true
	for _, x := range [2]int64{a.Lo, a.Hi} {
		for _, s := range [2]int64{b.Lo, b.Hi} {
			v := x >> uint(s)
			if first || v < lo {
				lo = v
			}
			if first || v > hi {
				hi = v
			}
			first = false
		}
	}
	return Interval{lo, hi}
}

// Neg is the transfer function for -a; negating MinInt64 wraps, so an
// interval containing it widens to Top.
func (a Interval) Neg() Interval {
	if a.Lo == math.MinInt64 {
		return TopInterval()
	}
	return Interval{-a.Hi, -a.Lo}
}

// Abs is the transfer function for |a|.
func (a Interval) Abs() Interval {
	if a.Lo == math.MinInt64 {
		return TopInterval()
	}
	switch {
	case a.Lo >= 0:
		return a
	case a.Hi <= 0:
		return Interval{-a.Hi, -a.Lo}
	default:
		return Interval{0, maxInt64(-a.Lo, a.Hi)}
	}
}

// Min is the transfer function for min(a, b).
func (a Interval) Min(b Interval) Interval {
	return Interval{minInt64(a.Lo, b.Lo), minInt64(a.Hi, b.Hi)}
}

// Max is the transfer function for max(a, b).
func (a Interval) Max(b Interval) Interval {
	return Interval{maxInt64(a.Lo, b.Lo), maxInt64(a.Hi, b.Hi)}
}

// Clamp is the transfer function for clamping a into [-lim, +lim] (lim is
// taken by magnitude, matching OpVecClamp).
func (a Interval) Clamp(lim int64) Interval {
	if lim < 0 {
		if lim == math.MinInt64 {
			// |MinInt64| wraps back to MinInt64, so the VM's "> lim" clamp
			// pins every element to MinInt64.
			return Point(math.MinInt64)
		}
		lim = -lim
	}
	lo, hi := a.Lo, a.Hi
	if lo < -lim {
		lo = -lim
	}
	if lo > lim {
		lo = lim
	}
	if hi > lim {
		hi = lim
	}
	if hi < -lim {
		hi = -lim
	}
	return Interval{lo, hi}
}

func minInt64(a, b int64) int64 {
	if b < a {
		return b
	}
	return a
}

func maxInt64(a, b int64) int64 {
	if b > a {
		return b
	}
	return a
}

// Rel is a comparison relation used for branch narrowing.
type Rel int

// Relations matching the conditional-jump opcodes.
const (
	RelEq Rel = iota
	RelNe
	RelGt
	RelGe
	RelLt
	RelLe
)

// Negate returns the relation that holds on the fall-through edge when the
// branch relation does not.
func (r Rel) Negate() Rel {
	switch r {
	case RelEq:
		return RelNe
	case RelNe:
		return RelEq
	case RelGt:
		return RelLe
	case RelGe:
		return RelLt
	case RelLt:
		return RelGe
	default:
		return RelGt
	}
}

// CondRel maps a conditional-jump opcode to its relation and reports whether
// the comparison is against an immediate.
func CondRel(op Opcode) (rel Rel, imm bool, ok bool) {
	switch op {
	case OpJEq, OpJEqImm:
		rel = RelEq
	case OpJNe, OpJNeImm:
		rel = RelNe
	case OpJGt, OpJGtImm:
		rel = RelGt
	case OpJGe, OpJGeImm:
		rel = RelGe
	case OpJLt, OpJLtImm:
		rel = RelLt
	case OpJLe, OpJLeImm:
		rel = RelLe
	default:
		return 0, false, false
	}
	return rel, op >= OpJEqImm, true
}

// Narrow refines the operand intervals under the assumption "a rel b" holds.
// feasible is false when no pair of values drawn from a and b satisfies the
// relation — i.e. the corresponding control-flow edge is statically dead.
func Narrow(rel Rel, a, b Interval) (na, nb Interval, feasible bool) {
	switch rel {
	case RelEq:
		m, ok := a.Intersect(b)
		return m, m, ok
	case RelNe:
		if a.IsPoint() && b.IsPoint() && a.Lo == b.Lo {
			return a, b, false
		}
		// Trim an endpoint when the other side is a single excluded value.
		if b.IsPoint() {
			if a.Lo == b.Lo {
				a.Lo++
			}
			if a.Hi == b.Lo {
				a.Hi--
			}
		}
		if a.IsPoint() {
			if b.Lo == a.Lo {
				b.Lo++
			}
			if b.Hi == a.Lo {
				b.Hi--
			}
		}
		return a, b, true
	case RelLt:
		if a.Lo >= b.Hi {
			return a, b, false
		}
		// a < b: a caps below b.Hi, b floors above a.Lo. Feasibility above
		// guarantees b.Hi > MinInt64 and a.Lo < MaxInt64.
		if a.Hi > b.Hi-1 {
			a.Hi = b.Hi - 1
		}
		if b.Lo < a.Lo+1 {
			b.Lo = a.Lo + 1
		}
		return a, b, true
	case RelLe:
		if a.Lo > b.Hi {
			return a, b, false
		}
		if a.Hi > b.Hi {
			a.Hi = b.Hi
		}
		if b.Lo < a.Lo {
			b.Lo = a.Lo
		}
		return a, b, true
	case RelGt:
		nb, na, feasible = Narrow(RelLt, b, a)
		return na, nb, feasible
	default: // RelGe
		nb, na, feasible = Narrow(RelLe, b, a)
		return na, nb, feasible
	}
}
