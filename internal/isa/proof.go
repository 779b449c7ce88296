package isa

import "strings"

// ProofMask records, per instruction, which runtime safety checks the
// verifier statically discharged. The masks are admission artifacts: they
// are produced by the verifier's abstract interpreter, attached to the
// admitted Program, and consumed by the VM engines, which elide exactly the
// proven checks. They are never encoded on the wire — a program arriving
// from outside the kernel carries no proofs until it is verified.
type ProofMask uint16

const (
	// ProofDivNonZero: the divisor of this OpDiv/OpMod is provably nonzero.
	ProofDivNonZero ProofMask = 1 << iota
	// ProofStackInBounds: this OpLdStack/OpStStack slot is provably within
	// [0, StackWords).
	ProofStackInBounds
	// ProofVecIndexInBounds: this OpVecSet/OpScalarVal element index is
	// provably within the vector's length.
	ProofVecIndexInBounds
	// ProofVecSet: the vector operand is provably initialized (and, for
	// ops that require it, provably non-empty) on every path reaching here.
	ProofVecSet
	// ProofVecLenMatch: the two vector operands of this element-wise op
	// provably have equal lengths.
	ProofVecLenMatch
	// ProofNoOverflow: the quantized multiply of this OpVecQuant provably
	// cannot overflow int64. There is no runtime check to elide — the bit
	// is reported so operators can see which quantizations are exact.
	ProofNoOverflow
	// ProofHelperArgs: the R1..R5 argument ranges of this OpCall provably
	// satisfy the helper's declared argument contracts.
	ProofHelperArgs
)

var proofNames = []struct {
	bit  ProofMask
	name string
}{
	{ProofDivNonZero, "div-nonzero"},
	{ProofStackInBounds, "stack-bounds"},
	{ProofVecIndexInBounds, "vec-index"},
	{ProofVecSet, "vec-set"},
	{ProofVecLenMatch, "vec-len"},
	{ProofNoOverflow, "no-overflow"},
	{ProofHelperArgs, "helper-args"},
}

// String lists the set bits, e.g. "div-nonzero|vec-set"; the empty mask
// renders as "-".
func (m ProofMask) String() string {
	if m == 0 {
		return "-"
	}
	var parts []string
	for _, p := range proofNames {
		if m&p.bit != 0 {
			parts = append(parts, p.name)
		}
	}
	return strings.Join(parts, "|")
}

// BranchDecision classifies what the verifier's interval domain proved about
// a conditional branch: whether both edges stay feasible or one is
// statically dead. A dead edge is excluded from worst-case cost accounting
// and folded away by the lowering — the branch itself still costs its one
// step, but the comparison can never go the dead way.
type BranchDecision int8

const (
	// BranchBoth means neither edge was proven infeasible.
	BranchBoth BranchDecision = iota
	// BranchAlwaysTaken means the fall-through edge is infeasible: the jump
	// is always taken.
	BranchAlwaysTaken
	// BranchNeverTaken means the taken edge is infeasible: control always
	// falls through.
	BranchNeverTaken
)

// Facts is the per-instruction fact table of one verified program (indexed
// by pc), the codegen-facing export of the verifier's abstract interpreter:
// everything here was computed anyway to admit the program. Like the proof
// masks, facts are an admission artifact: attached to the admitted Program,
// never encoded on the wire, and consumed by the lowering both native
// backends share, which folds decided branches and drops dead instructions.
// A program's facts hold for any state its caller enters with: the verifier
// assumes only that R1..R3 are initialized, and nothing about their values.
type Facts struct {
	// Live reports whether any path reaches the instruction. Dead
	// instructions may be dropped entirely.
	Live []bool
	// Branches records the statically decided outcome of each conditional
	// jump (BranchBoth for every non-branch instruction).
	Branches []BranchDecision
}
