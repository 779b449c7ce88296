// Package lower turns verified RMT bytecode into the one lowered form both
// native backends consume: the closure JIT (vm.Compile builds one closure per
// Node) and the ahead-of-time compiler (cmd/rmtkgen prints the same nodes as
// Go through EmitFunc). Lowering consumes the admission artifacts of the
// proof-carrying verifier:
//
//   - proof masks (isa.ProofMask) drop the runtime checks the abstract
//     interpreter statically discharged, exactly as the interpreter elides
//     them;
//   - interval facts (isa.Facts) fold conditional branches with a
//     statically dead edge into unconditional jumps (or fall-throughs) and
//     drop unreachable instructions;
//   - common opcode pairs fuse into superinstructions (see the table in
//     DESIGN.md): veczero+vecset* → vecinit, matmul+vecsum → matvecsum,
//     mulimm+addimm → muladdimm;
//   - helper-argument contracts are resolved per call site: only the sites
//     that still need the check carry them (a contained contract —
//     ProofHelperArgs — needs none).
//
// The lowered form has no executable semantics of its own in this package:
// the interpreter (vm.exec.step) is the reference, and the soundness fuzz in
// package vm runs lowered programs through the JIT's production closures
// against it. The package imports only isa; vm imports it.
//
// Lowering statically validates what the backends would otherwise check per
// run — forward in-range jump targets, stack slots, vector lengths — so a
// back-edge is refused here rather than run under a step budget. What only
// the Go emitter cannot express is the emitter's own check (Prog.Emittable).
package lower

import (
	"errors"
	"fmt"

	"rmtk/internal/isa"
)

// ErrBadProgram marks structurally invalid input (lowering expects
// verifier-admitted programs). The three refusals a backend would otherwise
// make per instruction wrap their cause as well, so the backend can report
// them under its own error class.
var (
	ErrBadProgram = errors.New("lower: malformed program")
	// ErrJump: a jump that is not forward and inside the program.
	ErrJump = errors.New("bad jump")
	// ErrStackSlot: a constant stack slot outside [0, isa.StackWords).
	ErrStackSlot = errors.New("stack slot out of range")
	// ErrVecLength: a constant vector length outside [0, isa.MaxVecLen].
	ErrVecLength = errors.New("vector length out of range")
)

// Emitter-only restrictions, reported by Prog.Emittable: programs the AOT
// tier does not compile. The caller falls back to the JIT/interpreter tiers,
// which handle everything.
var (
	// ErrTailCall marks programs with tail-call cascades: the target is
	// resolved through the environment at run time and separately admitted,
	// so a single static function cannot represent the chain.
	ErrTailCall = errors.New("lower: tail-call programs are not AOT-compiled")
	// ErrUnsupported marks admitted-but-degenerate shapes the emitter cannot
	// express as compilable Go (e.g. a constant-negative vector index, which
	// always traps at run time but is a compile error as a Go index
	// expression). The slower tiers execute them bit-for-bit.
	ErrUnsupported = errors.New("lower: program shape not AOT-compilable")
)

// Kind discriminates lowered nodes.
type Kind uint8

const (
	// KInstr is a plain instruction with the semantics of Node.Op.
	KInstr Kind = iota
	// KJmp is an unconditional transfer to Node.Target — an original jmp or
	// a conditional branch whose fall-through edge the verifier proved dead.
	KJmp
	// KBranch is a conditional transfer to Node.Target (Op names the
	// comparison; both edges are feasible).
	KBranch
	// KExit returns R0.
	KExit
	// KTail transfers to the separately admitted program with id Imm; the
	// backend resolves it through the environment at run time.
	KTail
	// KVecInit is the fused veczero+vecset* superinstruction: V[Dst] gets
	// length Len, elements [0,len(Elems)) from the named scalar registers,
	// the rest zero.
	KVecInit
	// KMatVecSum is the fused matmul+vecsum superinstruction: V[Dst] =
	// W[Imm]·V[Src]+b[Imm], then R[Dst2] = Σ V[Dst][i].
	KMatVecSum
	// KMulAddImm is the fused mulimm+addimm superinstruction: R[Dst] =
	// R[Dst]*Mul + Add.
	KMulAddImm
)

// Node is one lowered operation.
type Node struct {
	// PC is the original pc of the (first fused) instruction; jump targets
	// and emitted labels anchor to it.
	PC int
	// Kind discriminates the payload.
	Kind Kind
	// Op is the base opcode for KInstr/KBranch nodes.
	Op isa.Opcode
	// Dst/Src/Imm mirror the instruction operands. Dst2 is the scalar
	// destination of a KMatVecSum.
	Dst, Src, Dst2 uint8
	// Label marks a node some jump transfers to (the emitter prints labels
	// only for these).
	Label bool
	// PM is the verifier's proof mask: set bits elide runtime checks.
	PM  isa.ProofMask
	Imm int64
	// Target is the node index a KJmp/KBranch transfers to.
	Target int
	// Cost is the number of original instructions this node accounts for;
	// executing the node charges it to the step counter.
	Cost int64
	// Elems are the source registers of a KVecInit's explicit elements.
	Elems []uint8
	// Len is a KVecInit's vector length.
	Len int
	// Mul/Add are a KMulAddImm's coefficients.
	Mul, Add int64
	// Contracts are the helper-argument intervals an OpCall node must
	// enforce at run time (nil when proven contained or uncontracted).
	Contracts []isa.Interval
}

// Prog is one lowered program.
type Prog struct {
	// Name is the source program's name (diagnostics only; it is excluded
	// from the AOT hash).
	Name string
	// Nodes is the lowered operation list.
	Nodes []Node
	// StaticSteps is the verifier's worst-case step bound carried from the
	// admitted program (0 when absent).
	StaticSteps int64
	// OrigInsns is the source instruction count before folding and fusion.
	OrigInsns int
	// FoldedBranches and FusedPairs report how much the proof-driven
	// optimizations bought (for reports and tests).
	FoldedBranches, FusedPairs, DeadInsns int
}

// Lower builds the lowered form of an admitted program from the admission
// artifacts it carries. prog.Facts may be nil (no branch folding or dead-code
// removal), and prog.Proofs likewise (every runtime check kept).
func Lower(prog *isa.Program) (*Prog, error) {
	n := len(prog.Insns)
	if n == 0 {
		return nil, fmt.Errorf("%w: empty program", ErrBadProgram)
	}
	facts := prog.Facts
	if prog.Proofs != nil && len(prog.Proofs) != n {
		return nil, fmt.Errorf("%w: %d proofs for %d instructions", ErrBadProgram, len(prog.Proofs), n)
	}
	if facts != nil && (len(facts.Live) != n || len(facts.Branches) != n) {
		return nil, fmt.Errorf("%w: %d/%d live/branch facts for %d instructions", ErrBadProgram, len(facts.Live), len(facts.Branches), n)
	}
	lp := &Prog{Name: prog.Name, StaticSteps: prog.StaticSteps, OrigInsns: n}

	live := func(pc int) bool { return facts == nil || facts.Live[pc] }
	pmAt := func(pc int) isa.ProofMask {
		if prog.Proofs == nil {
			return 0
		}
		return prog.Proofs[pc]
	}

	// Pass 1: one node per live instruction; Target temporarily holds the
	// original target pc. Conditional branches with a dead edge fold here.
	nodes := make([]Node, 0, n)
	for pc, in := range prog.Insns {
		if !live(pc) {
			lp.DeadInsns++
			continue
		}
		nodes = append(nodes, Node{PC: pc, Kind: KInstr, Op: in.Op, Dst: in.Dst, Src: in.Src, Imm: in.Imm, PM: pmAt(pc), Cost: 1, Target: -1})
		nd := &nodes[len(nodes)-1]
		switch {
		case in.Op == isa.OpTailCall:
			nd.Kind = KTail
		case in.Op == isa.OpExit:
			nd.Kind = KExit
		case in.Op == isa.OpJmp:
			nd.Kind = KJmp
			nd.Target = pc + 1 + int(in.Off)
		case in.Op.IsCondJump():
			decision := isa.BranchBoth
			if facts != nil {
				decision = facts.Branches[pc]
			}
			switch decision {
			case isa.BranchAlwaysTaken:
				nd.Kind = KJmp
				nd.Target = pc + 1 + int(in.Off)
				lp.FoldedBranches++
			case isa.BranchNeverTaken:
				// The comparison still costs its step but can only fall
				// through: a cost-only nop.
				nd.Kind = KInstr
				nd.Op = isa.OpNop
				lp.FoldedBranches++
			default:
				nd.Kind = KBranch
				nd.Target = pc + 1 + int(in.Off)
			}
		case in.Op == isa.OpLdStack || in.Op == isa.OpStStack:
			// The slot index is an immediate: the bounds check is a constant
			// expression, resolved here instead of at run time.
			if in.Imm < 0 || in.Imm >= isa.StackWords {
				return nil, fmt.Errorf("%w: pc %d: %w: %d", ErrBadProgram, pc, ErrStackSlot, in.Imm)
			}
		case in.Op == isa.OpVecZero || in.Op == isa.OpVecLdHist:
			if in.Imm < 0 || in.Imm > isa.MaxVecLen {
				return nil, fmt.Errorf("%w: pc %d: %w: %d", ErrBadProgram, pc, ErrVecLength, in.Imm)
			}
		case in.Op == isa.OpCall:
			if nd.PM&isa.ProofHelperArgs == 0 && prog.HelperContracts != nil {
				if cs, ok := prog.HelperContracts[in.Imm]; ok {
					nd.Contracts = cs
				}
			}
		}
		if nd.Target >= 0 && (nd.Target >= n || nd.Target <= pc) {
			return nil, fmt.Errorf("%w: pc %d: %w to pc %d", ErrBadProgram, pc, ErrJump, nd.Target)
		}
	}

	// Per-pc scratch. Until fusion it marks the jump-target pcs (fusion must
	// not swallow a node another node jumps to); after it, it maps a pc to the
	// node that starts there.
	const isTarget = -1
	atPC := make([]int32, n)
	for i := range nodes {
		if nd := &nodes[i]; nd.Kind == KJmp || nd.Kind == KBranch {
			atPC[nd.Target] = isTarget
		}
	}

	// Pass 2: superinstruction fusion over adjacent nodes, in place — a fused
	// node is built from the nodes it replaces, then written at or before the
	// first one's index.
	fused := nodes[:0]
	for i := 0; i < len(nodes); {
		nd := &nodes[i]
		if nd.Kind == KInstr {
			switch nd.Op {
			case isa.OpVecZero:
				// veczero v,n ; vecset v,rA,0 ; vecset v,rB,1 ; ... fuses as
				// long as the indices stay consecutive from 0 (each then
				// statically in bounds) and no fused-in node is a target.
				vlen := int(nd.Imm)
				var elems []uint8
				j := i + 1
				for j < len(nodes) && len(elems) < vlen {
					nx := &nodes[j]
					if atPC[nx.PC] == isTarget || nx.Kind != KInstr || nx.Op != isa.OpVecSet ||
						nx.Dst != nd.Dst || nx.Imm != int64(len(elems)) {
						break
					}
					elems = append(elems, nx.Src)
					j++
				}
				if len(elems) > 0 {
					fused = append(fused, Node{PC: nd.PC, Kind: KVecInit, Dst: nd.Dst,
						Len: vlen, Elems: elems, Cost: int64(1 + len(elems)), Target: -1})
					lp.FusedPairs++
					i = j
					continue
				}
			case isa.OpMatMul:
				if i+1 < len(nodes) {
					nx := &nodes[i+1]
					if atPC[nx.PC] != isTarget && nx.Kind == KInstr && nx.Op == isa.OpVecSum && nx.Src == nd.Dst {
						fused = append(fused, Node{PC: nd.PC, Kind: KMatVecSum, Dst: nd.Dst, Src: nd.Src,
							Dst2: nx.Dst, Imm: nd.Imm, PM: nd.PM, Cost: 2, Target: -1})
						lp.FusedPairs++
						i += 2
						continue
					}
				}
			case isa.OpMulImm:
				if i+1 < len(nodes) {
					nx := &nodes[i+1]
					if atPC[nx.PC] != isTarget && nx.Kind == KInstr && nx.Op == isa.OpAddImm && nx.Dst == nd.Dst {
						fused = append(fused, Node{PC: nd.PC, Kind: KMulAddImm, Dst: nd.Dst,
							Mul: nd.Imm, Add: nx.Imm, Cost: 2, Target: -1})
						lp.FusedPairs++
						i += 2
						continue
					}
				}
			}
		}
		fused = append(fused, *nd)
		i++
	}

	// Pass 3: resolve jump targets to node indices and mark labels. Every
	// live target maps to a node head: dead targets are only reachable via
	// dead edges (folded above), and fusion never swallows a target.
	for idx := range fused {
		atPC[fused[idx].PC] = int32(idx) + 1 // 0 and isTarget: no node starts here
	}
	for idx := range fused {
		nd := &fused[idx]
		if nd.Kind != KJmp && nd.Kind != KBranch {
			continue
		}
		t := int(atPC[nd.Target]) - 1
		if t < 0 {
			return nil, fmt.Errorf("%w: pc %d: %w to unmapped pc %d", ErrBadProgram, nd.PC, ErrJump, nd.Target)
		}
		nd.Target = t
		fused[t].Label = true
	}
	lp.Nodes = fused
	return lp, nil
}

// condIsImm reports whether the comparison's right operand is the immediate.
func condIsImm(op isa.Opcode) bool {
	return op >= isa.OpJEqImm && op <= isa.OpJLeImm
}
