// Package verifier statically checks RMT programs before they are admitted
// to the kernel (§3.3 of the paper).
//
// Like the eBPF verifier it proves well-formedness and bounded execution, but
// it additionally reasons about the properties the paper calls out for
// learned datapaths:
//
//   - model efficiency — a static cost model bounds the worst-case ML
//     operations (e.g. multiply-accumulates of every RMT_MAT_MUL on the
//     longest control-flow path) and the memory footprint of every model the
//     program references;
//   - performance interference — programs that call resource-allocating
//     helpers (prefetch issue, hugepage grants, ...) are flagged so the
//     kernel wraps them in rate limiters;
//   - shape safety — an abstract interpretation of vector-register lengths
//     catches matrix/vector dimension mismatches at load time.
//
// The analysis is linear in program size because the instruction set only
// permits forward branches: every jump target must strictly follow the
// jumping instruction, so the control-flow graph is a DAG in instruction
// order and execution is bounded by the longest path.
package verifier

import (
	"errors"
	"fmt"

	"rmtk/internal/isa"
)

// HelperSpec describes a whitelisted kernel helper.
type HelperSpec struct {
	// Name is the helper's diagnostic name.
	Name string
	// Cost is the helper's per-call cost in abstract ops.
	Cost int64
	// AllocatesResources marks helpers whose effect consumes shared
	// resources (IO bandwidth, memory); programs calling them must be rate
	// limited by the kernel (Report.NeedsRateLimit).
	AllocatesResources bool
	// Args declares range contracts for the helper's arguments R1..R5
	// (position i constrains R(1+i); missing or Top entries are
	// unconstrained). A call site whose argument intervals provably satisfy
	// every contract gets ProofHelperArgs and runs unchecked; a site whose
	// argument interval is disjoint from a contract is rejected at
	// admission (ErrHelperArg); everything in between is enforced by the
	// VM at runtime.
	Args []isa.Interval
	// Ret, when non-nil, declares the range of the helper's return value,
	// letting the interval domain reason past the call.
	Ret *isa.Interval
}

// ModelCost is the admission cost of one registered ML model: worst-case ops
// per inference and resident bytes. ML packages compute it via their Cost
// methods.
type ModelCost struct {
	Ops   int64
	Bytes int64
}

// MatShape describes a registered weight matrix for RMT_MAT_MUL.
type MatShape struct {
	In, Out int
	Bytes   int64
}

// Config carries the kernel-side registries and budgets the program is
// checked against.
type Config struct {
	Helpers map[int64]HelperSpec
	Models  map[int64]ModelCost
	Mats    map[int64]MatShape
	Tables  map[int64]bool
	Vecs    map[int64]int          // vector pool id -> length
	Tails   map[int64]*isa.Program // tail-call targets

	// StepBudget bounds worst-case executed instructions across the tail
	// chain; 0 selects vm.DefaultStepBudget semantics (isa.MaxProgInsns *
	// (isa.MaxTailCalls+1)).
	StepBudget int64
	// OpsBudget bounds worst-case ML ops per invocation; 0 means unlimited.
	OpsBudget int64
	// MemBudget bounds total referenced model/matrix bytes; 0 means
	// unlimited.
	MemBudget int64
	// CtxFields, when >0, tightens the context-field range check from the
	// architectural MaxCtxFields down to the attached context store's actual
	// field count (kernels pass their CtxStore configuration here).
	CtxFields int
}

// Report summarizes what the verifier proved about the program.
type Report struct {
	// MaxSteps is the worst-case number of executed instructions, including
	// tail-call targets.
	MaxSteps int64
	// MLOps is the worst-case ML op count on any path, including tail-call
	// targets.
	MLOps int64
	// ModelBytes is the total size of all models and matrices the program
	// (and its tail targets) can reach.
	ModelBytes int64
	// NeedsRateLimit is set when the program calls a resource-allocating
	// helper and must be wrapped in a rate limiter before attachment.
	NeedsRateLimit bool
	// WritesCtx is set when the program mutates the execution context.
	WritesCtx bool
	// Warnings are non-fatal findings (unreachable code, unknown shapes).
	Warnings []string

	// Proofs holds one ProofMask per instruction of the root program,
	// recording which runtime checks the abstract interpreter statically
	// discharged. Tail-call targets are admitted separately and carry their
	// own proofs. The kernel attaches this slice to the admitted program so
	// the VM engines elide exactly the proven checks.
	Proofs []isa.ProofMask
	// ElidedChecks counts the runtime check sites of the root program that
	// Proofs discharges (ProofNoOverflow is informational and not counted).
	ElidedChecks int
	// DeadEdges counts conditional-branch edges of the root program the
	// interval domain proved infeasible; they are excluded from the
	// worst-case cost accounting above.
	DeadEdges int
	// HelperContracts maps each contracted helper the root program calls to
	// its declared argument ranges. The kernel attaches it to the admitted
	// program; the VM enforces the contracts at call sites whose
	// ProofHelperArgs bit is unset.
	HelperContracts map[int64][]isa.Interval
	// Facts carries the abstract interpreter's per-instruction facts for the
	// root program, beyond the boolean proofs above: reachability, statically
	// decided branches, and static vector-register lengths. Ahead-of-time
	// code generation (internal/aot) consumes them to fold proven-dead
	// branches and emit fixed-length vector loops; they are advisory for
	// every other consumer.
	Facts *Facts

	// Pure is set when the whole program chain is a pure function of the
	// fire arguments and the admitted datapath state (tables, models,
	// matrices): no context reads/writes, no helper calls, no vector-pool
	// or history access, no tail cascades. For pure programs a fire verdict
	// may be memoized and replayed until something the fire read changes
	// (internal/core's verdict cache).
	Pure bool
}

// BranchDecision classifies what the interval domain proved about a
// conditional branch: whether both edges stay feasible or one is statically
// dead. A dead edge is excluded from worst-case cost accounting and may be
// folded away by code generators — the branch itself still costs its one
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

// Static vector-length sentinels used by Facts.VecLens (mirroring the
// abstract lattice of the shape domain).
const (
	// VecLenUnknown marks a vector register that is written on every path
	// but whose length is not a single static value.
	VecLenUnknown = -1
	// VecLenUnset marks a vector register not written on some path reaching
	// the instruction.
	VecLenUnset = -2
)

// Facts is the per-instruction fact table of one verified program (indexed
// by pc over the root program's instructions). It is the codegen-facing
// export of the abstract interpreter's fixed point: everything here was
// computed anyway to admit the program; recording it costs one slice per
// domain.
type Facts struct {
	// Live reports whether any path reaches the instruction. Dead
	// instructions may be dropped entirely.
	Live []bool
	// Branches records the statically decided outcome of each conditional
	// jump (BranchBoth for every non-branch instruction).
	Branches []BranchDecision
	// VecLens gives the incoming static length of every vector register at
	// the instruction (element i of entry pc is V[i]'s length on entry to
	// pc), or VecLenUnknown / VecLenUnset.
	VecLens [][isa.NumVRegs]int
}

// Sentinel verification errors (wrapped with position detail).
var (
	ErrEmpty         = errors.New("verifier: empty program")
	ErrTooLong       = errors.New("verifier: program too long")
	ErrBadOpcode     = errors.New("verifier: invalid opcode")
	ErrBadRegister   = errors.New("verifier: register out of range")
	ErrBackEdge      = errors.New("verifier: backward jump (unbounded execution)")
	ErrJumpRange     = errors.New("verifier: jump target out of program")
	ErrFallOff       = errors.New("verifier: control can fall off program end")
	ErrUninitRead    = errors.New("verifier: read of uninitialized register")
	ErrUninitVec     = errors.New("verifier: use of uninitialized vector register")
	ErrR0AtExit      = errors.New("verifier: R0 not set before exit")
	ErrStackOOB      = errors.New("verifier: stack slot out of bounds")
	ErrUninitStack   = errors.New("verifier: read of uninitialized stack slot")
	ErrUndeclared    = errors.New("verifier: resource not declared by program")
	ErrUnknownRes    = errors.New("verifier: resource not registered in kernel")
	ErrShapeMismatch = errors.New("verifier: vector shape mismatch")
	ErrVecTooLong    = errors.New("verifier: vector longer than MaxVecLen")
	ErrOpsBudget     = errors.New("verifier: ML ops budget exceeded")
	ErrMemBudget     = errors.New("verifier: model memory budget exceeded")
	ErrStepBudget    = errors.New("verifier: step budget exceeded")
	ErrTailCycle     = errors.New("verifier: tail-call cycle")
	ErrTailDepth     = errors.New("verifier: tail-call chain too deep")
	ErrFieldRange    = errors.New("verifier: context field index out of range")
	ErrHelperArg     = errors.New("verifier: helper argument violates contract")
)

// MaxCtxFields bounds the context field index a program may reference; it
// matches the kernel's CtxStore configuration upper bound.
const MaxCtxFields = 64

// Verify checks prog against cfg and returns the admission report.
func Verify(prog *isa.Program, cfg Config) (*Report, error) {
	rep := &Report{Pure: true}
	if err := verifyChain(prog, cfg, rep, map[string]bool{}, 0); err != nil {
		return nil, err
	}
	if cfg.OpsBudget > 0 && rep.MLOps > cfg.OpsBudget {
		return nil, fmt.Errorf("%w: %d > %d", ErrOpsBudget, rep.MLOps, cfg.OpsBudget)
	}
	if cfg.MemBudget > 0 && rep.ModelBytes > cfg.MemBudget {
		return nil, fmt.Errorf("%w: %d > %d", ErrMemBudget, rep.ModelBytes, cfg.MemBudget)
	}
	stepBudget := cfg.StepBudget
	if stepBudget == 0 {
		stepBudget = int64(isa.MaxProgInsns) * int64(isa.MaxTailCalls+1)
	}
	if rep.MaxSteps > stepBudget {
		return nil, fmt.Errorf("%w: %d > %d", ErrStepBudget, rep.MaxSteps, stepBudget)
	}
	return rep, nil
}

// verifyChain verifies one program and recurses into its tail-call targets,
// accumulating worst-case costs into rep.
func verifyChain(prog *isa.Program, cfg Config, rep *Report, inChain map[string]bool, depth int) error {
	if depth > isa.MaxTailCalls {
		return fmt.Errorf("%w: depth %d", ErrTailDepth, depth)
	}
	if inChain[prog.Name] {
		return fmt.Errorf("%w: through %q", ErrTailCycle, prog.Name)
	}
	inChain[prog.Name] = true
	defer delete(inChain, prog.Name)

	// Proof artifacts describe exactly one program's instructions, so only
	// the root of the chain collects them; tail targets are admitted (and
	// get their own proofs) separately.
	v := &pass{prog: prog, cfg: cfg, rep: rep, collect: depth == 0}
	tails, err := v.run()
	if err != nil {
		return fmt.Errorf("program %q: %w", prog.Name, err)
	}
	for _, in := range prog.Insns {
		if !pureOp(in.Op) {
			rep.Pure = false
			break
		}
	}
	for _, id := range tails {
		target := cfg.Tails[id]
		if err := verifyChain(target, cfg, rep, inChain, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// pureOp reports whether op is free of effects outside the fire's own
// registers/stack/vectors and the versioned datapath state. Context loads
// count as impure because RMT_CTXT mutates without any version the verdict
// cache could stamp; tail calls are conservatively impure (the cascade target
// is a separately-admitted program). The cache relies on the exact list: a
// pure program's only mutable inputs are the models it declares (matrices
// are write-once), which is what a cached verdict's model stamp covers
// (core.progBinding.dep) — an opcode that reads anything else, OpMatchCtxt
// included, must stay here or bring a stamp component of its own.
func pureOp(op isa.Opcode) bool {
	switch op {
	case isa.OpLdCtxt, isa.OpStCtxt, isa.OpMatchCtxt, isa.OpHistPush,
		isa.OpCall, isa.OpTailCall, isa.OpVecLd, isa.OpVecSt, isa.OpVecLdHist:
		return false
	}
	return true
}
