// Package dp implements the differential-privacy mechanism the verifier uses
// to bound what cross-application RMT queries can leak (§3.3 "Privacy"): "if
// an RMT query returns some aggregate statistics, we can leverage
// differential privacy to noise the outputs. The kernel can maintain a
// 'privacy budget', in DP terms, and subtract from this overall budget for
// each table match."
package dp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// ErrBudgetExhausted is returned when a query would exceed the remaining
// privacy budget.
var ErrBudgetExhausted = errors.New("dp: privacy budget exhausted")

// Accountant tracks a global epsilon budget and answers aggregate queries
// through the Laplace mechanism. Queries occur at well-defined points (RMT
// tables), which is what makes this accounting tractable in the paper's
// design.
//
// The books are kept in whole units of 1e-9 epsilon, each epsilon converted
// once where it enters, so the charges sum exactly: in float64, ten
// minus 199 charges of 0.05 leaves 0.04999999999999236, which would refuse
// the 200th query of a budget that holds exactly 200.
type Accountant struct {
	mu     sync.Mutex
	budget int64 // remaining epsilon, in units
	rng    *rand.Rand
}

// unitsPerEpsilon is the books' resolution: one unit is 1e-9 epsilon.
const unitsPerEpsilon = 1e9

// toUnits converts a positive epsilon to units with the given rounding,
// capped at math.MaxInt64 units (about 9.2e9 epsilon), the books' range.
func toUnits(epsilon float64, round func(float64) float64) int64 {
	x := round(epsilon * unitsPerEpsilon)
	if x >= math.MaxInt64 { // float64(math.MaxInt64) is 2^63
		return math.MaxInt64
	}
	return int64(x)
}

func epsilonOf(n int64) float64 { return float64(n) / unitsPerEpsilon }

// NewAccountant creates an accountant with the given total epsilon budget
// and deterministic noise seed. The budget is rounded down to whole units,
// and one past the books' range (about 9.2e9 epsilon) is capped there, so
// the budget kept is never more than the one asked for.
func NewAccountant(epsilon float64, seed int64) (*Accountant, error) {
	if !(epsilon > 0) || math.IsInf(epsilon, 1) {
		return nil, fmt.Errorf("dp: bad budget %v", epsilon)
	}
	return &Accountant{
		budget: toUnits(epsilon, math.Floor),
		rng:    rand.New(rand.NewSource(seed)),
	}, nil
}

// Query releases value under (epsilon)-DP with the given L1 sensitivity,
// charging epsilon against the budget. epsilon is rounded to the nearest unit
// and the noise is drawn at the rounded epsilon, so a query's charge is
// exactly the privacy its answer spends; an epsilon below half a unit is
// refused.
func (a *Accountant) Query(value, sensitivity, epsilon float64) (float64, error) {
	if !(epsilon > 0) || sensitivity <= 0 {
		return 0, fmt.Errorf("dp: bad query parameters sensitivity=%v epsilon=%v", sensitivity, epsilon)
	}
	charge := toUnits(epsilon, math.Round)
	if charge == 0 {
		return 0, fmt.Errorf("dp: bad query parameters: epsilon=%v is below the books' resolution of %v", epsilon, epsilonOf(1))
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	// A charge at the cap stands for an epsilon past the books' range,
	// which no budget can pay.
	if charge > a.budget || charge == math.MaxInt64 {
		return 0, fmt.Errorf("%w: need %v, have %v", ErrBudgetExhausted, epsilon, epsilonOf(a.budget))
	}
	a.budget -= charge
	return value + a.laplace(sensitivity/epsilonOf(charge)), nil
}

// QueryCount is Query specialized for counting queries (sensitivity 1).
func (a *Accountant) QueryCount(count int64, epsilon float64) (float64, error) {
	return a.Query(float64(count), 1, epsilon)
}

// laplace draws Laplace(0, b) noise via inverse-CDF sampling. Caller holds
// the mutex.
func (a *Accountant) laplace(b float64) float64 {
	u := a.rng.Float64() - 0.5
	if u == 0 {
		return 0
	}
	sign := 1.0
	if u < 0 {
		sign = -1.0
		u = -u
	}
	return -b * sign * math.Log(1-2*u)
}
