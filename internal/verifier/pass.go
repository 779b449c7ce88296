package verifier

import (
	"fmt"

	"rmtk/internal/isa"
)

// Abstract vector-register lengths.
const (
	vecUnset   = -2 // never written on some path
	vecUnknown = -1 // written, but length not statically known
)

// absState is the abstract machine state at an instruction boundary: the
// init-tracking domains (register/stack bitmasks, vector lengths) joined
// with the interval (value-range) domain over scalar registers, stack slots
// and vector elements.
type absState struct {
	regs  uint32            // bitmask of initialized scalar registers
	stack uint64            // bitmask of initialized stack slots
	vecs  [isa.NumVRegs]int // abstract vector lengths
	live  bool              // whether any path reaches this point

	// Value ranges. riv/siv/velem track scalar registers, stack slots and
	// the covering range of each vector register's elements. All entries
	// start at Top: registers can carry arbitrary caller values across tail
	// calls, the scratch stack persists across invocations, and the
	// init-tracking domains above already reject reads that precede a
	// local write.
	riv   [isa.NumRegs]isa.Interval
	siv   [isa.StackWords]isa.Interval
	velem [isa.NumVRegs]isa.Interval
}

func entryState() absState {
	s := absState{live: true}
	s.regs = 1<<1 | 1<<2 | 1<<3 // R1..R3 initialized at hook dispatch
	for i := range s.vecs {
		s.vecs[i] = vecUnset
	}
	for i := range s.riv {
		s.riv[i] = isa.TopInterval()
	}
	for i := range s.siv {
		s.siv[i] = isa.TopInterval()
	}
	for i := range s.velem {
		s.velem[i] = isa.TopInterval()
	}
	return s
}

// merge folds an incoming edge state into the accumulated state at a join.
// Init masks intersect (a fact must hold on every path), vector lengths
// meet, and intervals union.
func (s *absState) merge(in absState) {
	if !s.live {
		*s = in
		return
	}
	s.regs &= in.regs
	s.stack &= in.stack
	for i := range s.vecs {
		switch {
		case s.vecs[i] == vecUnset || in.vecs[i] == vecUnset:
			s.vecs[i] = vecUnset
		case s.vecs[i] != in.vecs[i]:
			s.vecs[i] = vecUnknown
		}
	}
	for i := range s.riv {
		s.riv[i] = s.riv[i].Union(in.riv[i])
	}
	for i := range s.siv {
		s.siv[i] = s.siv[i].Union(in.siv[i])
	}
	for i := range s.velem {
		s.velem[i] = s.velem[i].Union(in.velem[i])
	}
}

// pass verifies a single program (no tail recursion).
type pass struct {
	prog *isa.Program
	cfg  Config
	rep  *Report
	// collect is set for the root program of a tail chain: its proofs,
	// dead-edge counts and helper contracts are recorded into the report.
	collect bool
	proofs  []isa.ProofMask
}

func declared(ids []int64, id int64) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// run performs all per-program checks and returns the set of tail-call
// target ids used by the program.
func (p *pass) run() ([]int64, error) {
	insns := p.prog.Insns
	n := len(insns)
	if n == 0 {
		return nil, ErrEmpty
	}
	if n > isa.MaxProgInsns {
		return nil, fmt.Errorf("%w: %d > %d", ErrTooLong, n, isa.MaxProgInsns)
	}
	p.proofs = make([]isa.ProofMask, n)
	var facts *isa.Facts
	if p.collect {
		facts = &isa.Facts{
			Live:     make([]bool, n),
			Branches: make([]isa.BranchDecision, n),
		}
	}

	// Structural pass: opcodes, registers, jump discipline.
	for pc, in := range insns {
		if !in.Op.Valid() {
			return nil, fmt.Errorf("%w: pc %d opcode %d", ErrBadOpcode, pc, in.Op)
		}
		if err := p.checkRegs(pc, in); err != nil {
			return nil, err
		}
		if in.Op.IsJump() {
			tgt := pc + 1 + int(in.Off)
			if tgt <= pc {
				return nil, fmt.Errorf("%w: pc %d -> %d", ErrBackEdge, pc, tgt)
			}
			if tgt >= n {
				return nil, fmt.Errorf("%w: pc %d -> %d (len %d)", ErrJumpRange, pc, tgt, n)
			}
		}
		if pc == n-1 && !in.Op.IsTerminal() {
			return nil, fmt.Errorf("%w: last instruction %s", ErrFallOff, in)
		}
	}

	// Forward dataflow. Because all edges go forward, a single in-order
	// sweep reaches the fixed point.
	states := make([]absState, n)
	states[0] = entryState()
	var (
		steps   = make([]int64, n) // worst-case instructions executed to reach pc (exclusive)
		mlops   = make([]int64, n) // worst-case ML ops to reach pc (exclusive)
		tailIDs []int64
		seenRes = map[[2]int64]bool{} // kind,id -> counted in ModelBytes
	)
	flow := func(from, to int, s absState, stepCost, opCost int64) {
		states[to].merge(s)
		if v := steps[from] + stepCost; v > steps[to] {
			steps[to] = v
		}
		if v := mlops[from] + opCost; v > mlops[to] {
			mlops[to] = v
		}
	}
	maxSteps, maxOps := int64(0), int64(0)

	for pc := 0; pc < n; pc++ {
		st := states[pc]
		in := insns[pc]
		if !st.live {
			p.warnf("pc %d unreachable: %s", pc, in)
			continue
		}
		if facts != nil {
			facts.Live[pc] = true
		}
		out := st
		opCost := int64(0)

		if err := p.checkReads(pc, in, &st); err != nil {
			return nil, err
		}
		if err := p.checkResources(pc, in, seenRes, &tailIDs); err != nil {
			return nil, err
		}
		if err := p.proveChecks(pc, in, &st); err != nil {
			return nil, err
		}
		if c, err := p.applyEffects(pc, in, &out); err != nil {
			return nil, err
		} else {
			opCost = c
		}

		// Propagate along successors. Conditional branches narrow the
		// compared intervals per edge; an edge whose narrowing is
		// infeasible is statically dead and contributes neither state nor
		// worst-case cost.
		switch {
		case in.Op == isa.OpExit, in.Op == isa.OpTailCall:
			if in.Op == isa.OpExit && st.regs&1 == 0 {
				return nil, fmt.Errorf("%w: pc %d", ErrR0AtExit, pc)
			}
			if v := steps[pc] + 1; v > maxSteps {
				maxSteps = v
			}
			if v := mlops[pc] + opCost; v > maxOps {
				maxOps = v
			}
		case in.Op == isa.OpJmp:
			flow(pc, pc+1+int(in.Off), out, 1, opCost)
		case in.Op.IsCondJump():
			rel, isImm, _ := isa.CondRel(in.Op)
			a := out.riv[in.Dst]
			b := isa.Point(in.Imm)
			if !isImm {
				b = out.riv[in.Src]
			}
			branch := func(r isa.Rel, to int, taken bool) {
				na, nb, feasible := isa.Narrow(r, a, b)
				if !feasible {
					if p.collect {
						p.rep.DeadEdges++
					}
					if facts != nil {
						if taken {
							facts.Branches[pc] = isa.BranchNeverTaken
						} else {
							facts.Branches[pc] = isa.BranchAlwaysTaken
						}
					}
					p.warnf("pc %d branch edge to %d infeasible: %s", pc, to, in)
					return
				}
				e := out
				e.riv[in.Dst] = na
				if !isImm {
					e.riv[in.Src] = nb
				}
				flow(pc, to, e, 1, opCost)
			}
			branch(rel, pc+1+int(in.Off), true)
			branch(rel.Negate(), pc+1, false)
		default:
			flow(pc, pc+1, out, 1, opCost)
		}
	}

	p.rep.MaxSteps += maxSteps
	p.rep.MLOps += maxOps
	if p.collect {
		p.rep.Proofs = p.proofs
		p.rep.Facts = facts
	}
	return tailIDs, nil
}

func (p *pass) warnf(format string, args ...any) {
	p.rep.Warnings = append(p.rep.Warnings, fmt.Sprintf("%s: %s", p.prog.Name, fmt.Sprintf(format, args...)))
}

// prove marks a runtime check at pc as statically discharged.
func (p *pass) prove(pc int, bit isa.ProofMask) {
	p.proofs[pc] |= bit
	if p.collect && bit != isa.ProofNoOverflow {
		p.rep.ElidedChecks++
	}
}

// proveChecks inspects the incoming abstract state and records which of the
// instruction's runtime checks are statically discharged. Helper-argument
// contracts are also *refuted* here: a call site whose argument interval is
// disjoint from the helper's contract can never succeed and is rejected.
func (p *pass) proveChecks(pc int, in isa.Instr, st *absState) error {
	switch in.Op {
	case isa.OpDiv, isa.OpMod:
		if !st.riv[in.Src].Contains(0) {
			p.prove(pc, isa.ProofDivNonZero)
		}
	case isa.OpLdStack, isa.OpStStack:
		// checkReads already rejected out-of-range slots, so the remaining
		// runtime bounds check is always discharged.
		p.prove(pc, isa.ProofStackInBounds)
	case isa.OpVecSet:
		if n := st.vecs[in.Dst]; n >= 0 && in.Imm >= 0 && int(in.Imm) < n {
			p.prove(pc, isa.ProofVecIndexInBounds)
		}
	case isa.OpScalarVal:
		if n := st.vecs[in.Src]; n >= 0 && in.Imm >= 0 && int(in.Imm) < n {
			p.prove(pc, isa.ProofVecIndexInBounds)
		}
	case isa.OpVecSt:
		if st.vecs[in.Src] != vecUnset {
			p.prove(pc, isa.ProofVecSet)
		}
	case isa.OpMatMul, isa.OpMLInfer:
		if st.vecs[in.Src] != vecUnset {
			p.prove(pc, isa.ProofVecSet)
		}
	case isa.OpVecPush:
		if st.vecs[in.Dst] >= 1 {
			p.prove(pc, isa.ProofVecSet)
		}
	case isa.OpVecArgMax:
		if st.vecs[in.Src] >= 1 {
			p.prove(pc, isa.ProofVecSet)
		}
	case isa.OpVecAdd, isa.OpVecMul:
		a, b := st.vecs[in.Dst], st.vecs[in.Src]
		if a >= 0 && a == b {
			p.prove(pc, isa.ProofVecLenMatch)
		}
	case isa.OpVecDot:
		a, b := st.vecs[in.Src], st.vecs[uint8(in.Imm)]
		if a >= 0 && a == b {
			p.prove(pc, isa.ProofVecLenMatch)
		}
	case isa.OpVecQuant:
		mul, _ := isa.UnpackQuant(in.Imm)
		if st.vecs[in.Dst] != vecUnset && !st.velem[in.Dst].MulOverflows(isa.Point(mul)) {
			p.prove(pc, isa.ProofNoOverflow)
		}
	case isa.OpCall:
		spec, ok := p.cfg.Helpers[in.Imm]
		if !ok || len(spec.Args) == 0 {
			return nil
		}
		proven := true
		for i, c := range spec.Args {
			if i >= 5 || c.IsTop() {
				continue
			}
			arg := st.riv[1+i]
			if _, overlaps := arg.Intersect(c); !overlaps {
				return fmt.Errorf("%w: pc %d helper %d (%s) r%d in %s outside contract %s",
					ErrHelperArg, pc, in.Imm, spec.Name, 1+i, arg, c)
			}
			if !c.ContainsInterval(arg) {
				proven = false
			}
		}
		if proven {
			p.prove(pc, isa.ProofHelperArgs)
		}
		if p.collect {
			if p.rep.HelperContracts == nil {
				p.rep.HelperContracts = make(map[int64][]isa.Interval)
			}
			p.rep.HelperContracts[in.Imm] = spec.Args
		}
	}
	return nil
}

// regClass describes which operand fields of an opcode name scalar (r) or
// vector (v) registers.
func (p *pass) checkRegs(pc int, in isa.Instr) error {
	bad := func(what string, idx uint8) error {
		return fmt.Errorf("%w: pc %d %s operand %s%d", ErrBadRegister, pc, in.Op, what, idx)
	}
	ckR := func(idx uint8) error {
		if int(idx) >= isa.NumRegs {
			return bad("r", idx)
		}
		return nil
	}
	ckV := func(idx uint8) error {
		if int(idx) >= isa.NumVRegs {
			return bad("v", idx)
		}
		return nil
	}
	switch in.Op {
	case isa.OpNop, isa.OpExit, isa.OpJmp, isa.OpCall, isa.OpTailCall:
		return nil
	case isa.OpVecZero, isa.OpVecLd, isa.OpVecRelu, isa.OpVecQuant, isa.OpVecClamp:
		return ckV(in.Dst)
	case isa.OpVecSt:
		return ckV(in.Src)
	case isa.OpVecAdd, isa.OpVecMul, isa.OpMatMul:
		if err := ckV(in.Dst); err != nil {
			return err
		}
		return ckV(in.Src)
	case isa.OpVecLdHist, isa.OpVecSet, isa.OpVecPush:
		if err := ckV(in.Dst); err != nil {
			return err
		}
		return ckR(in.Src)
	case isa.OpScalarVal, isa.OpVecArgMax, isa.OpVecSum, isa.OpMLInfer:
		if err := ckR(in.Dst); err != nil {
			return err
		}
		return ckV(in.Src)
	case isa.OpVecDot:
		if err := ckR(in.Dst); err != nil {
			return err
		}
		if err := ckV(in.Src); err != nil {
			return err
		}
		return ckV(uint8(in.Imm))
	case isa.OpLdStack, isa.OpMovImm, isa.OpAddImm, isa.OpMulImm, isa.OpNeg, isa.OpAbs,
		isa.OpJEqImm, isa.OpJNeImm, isa.OpJGtImm, isa.OpJGeImm, isa.OpJLtImm, isa.OpJLeImm:
		return ckR(in.Dst)
	case isa.OpStStack:
		return ckR(in.Src)
	default:
		if err := ckR(in.Dst); err != nil {
			return err
		}
		return ckR(in.Src)
	}
}

// checkReads verifies every register/stack/vector read is preceded by a
// write on all paths.
func (p *pass) checkReads(pc int, in isa.Instr, st *absState) error {
	needR := func(idx uint8) error {
		if st.regs&(1<<idx) == 0 {
			return fmt.Errorf("%w: pc %d %s reads r%d", ErrUninitRead, pc, in.Op, idx)
		}
		return nil
	}
	needV := func(idx uint8) error {
		if st.vecs[idx] == vecUnset {
			return fmt.Errorf("%w: pc %d %s reads v%d", ErrUninitVec, pc, in.Op, idx)
		}
		return nil
	}
	switch in.Op {
	case isa.OpNop, isa.OpMovImm, isa.OpJmp, isa.OpExit, isa.OpTailCall,
		isa.OpVecZero, isa.OpVecLd:
		return nil
	case isa.OpMov:
		return needR(in.Src)
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpShl, isa.OpShr, isa.OpMin, isa.OpMax, isa.OpDiv, isa.OpMod,
		isa.OpJEq, isa.OpJNe, isa.OpJGt, isa.OpJGe, isa.OpJLt, isa.OpJLe:
		if err := needR(in.Dst); err != nil {
			return err
		}
		return needR(in.Src)
	case isa.OpAddImm, isa.OpMulImm, isa.OpNeg, isa.OpAbs,
		isa.OpJEqImm, isa.OpJNeImm, isa.OpJGtImm, isa.OpJGeImm, isa.OpJLtImm, isa.OpJLeImm:
		return needR(in.Dst)
	case isa.OpLdStack:
		if in.Imm < 0 || in.Imm >= isa.StackWords {
			return fmt.Errorf("%w: pc %d slot %d", ErrStackOOB, pc, in.Imm)
		}
		if st.stack&(1<<uint(in.Imm)) == 0 {
			return fmt.Errorf("%w: pc %d slot %d", ErrUninitStack, pc, in.Imm)
		}
		return nil
	case isa.OpStStack:
		if in.Imm < 0 || in.Imm >= isa.StackWords {
			return fmt.Errorf("%w: pc %d slot %d", ErrStackOOB, pc, in.Imm)
		}
		return needR(in.Src)
	case isa.OpLdCtxt, isa.OpMatchCtxt:
		return needR(in.Src)
	case isa.OpStCtxt:
		if err := needR(in.Dst); err != nil {
			return err
		}
		return needR(in.Src)
	case isa.OpHistPush:
		if err := needR(in.Dst); err != nil {
			return err
		}
		return needR(in.Src)
	case isa.OpCall:
		// Helper arguments are R1..R5; only initialized registers reach the
		// helper, uninitialized ones read as whatever was left — so require
		// the full window to be written. R4/R5 are often unused; treat only
		// R1..R3 as required (hook-initialized) and warn on the rest.
		for _, r := range []uint8{4, 5} {
			if st.regs&(1<<r) == 0 {
				p.warnf("pc %d call passes uninitialized r%d", pc, r)
				// Treat as zero: the VM state zeroes registers at reset, so
				// this is safe, but the program author likely made an error.
			}
		}
		return nil
	case isa.OpVecSt, isa.OpVecRelu, isa.OpVecQuant, isa.OpVecClamp:
		idx := in.Dst
		if in.Op == isa.OpVecSt {
			idx = in.Src
		}
		return needV(idx)
	case isa.OpVecLdHist:
		return needR(in.Src)
	case isa.OpVecSet, isa.OpVecPush:
		if err := needV(in.Dst); err != nil {
			return err
		}
		return needR(in.Src)
	case isa.OpScalarVal, isa.OpVecArgMax, isa.OpVecSum, isa.OpMLInfer:
		return needV(in.Src)
	case isa.OpMatMul:
		return needV(in.Src)
	case isa.OpVecAdd, isa.OpVecMul:
		if err := needV(in.Dst); err != nil {
			return err
		}
		return needV(in.Src)
	case isa.OpVecDot:
		if err := needV(in.Src); err != nil {
			return err
		}
		return needV(uint8(in.Imm))
	}
	return nil
}

// checkResources validates declared/registered resource ids and accumulates
// the memory footprint of referenced models and matrices.
func (p *pass) checkResources(pc int, in isa.Instr, seen map[[2]int64]bool, tails *[]int64) error {
	und := func(kind string) error {
		return fmt.Errorf("%w: pc %d %s %s %d", ErrUndeclared, pc, in.Op, kind, in.Imm)
	}
	unk := func(kind string) error {
		return fmt.Errorf("%w: pc %d %s %s %d", ErrUnknownRes, pc, in.Op, kind, in.Imm)
	}
	switch in.Op {
	case isa.OpCall:
		if !declared(p.prog.Helpers, in.Imm) {
			return und("helper")
		}
		h, ok := p.cfg.Helpers[in.Imm]
		if !ok {
			return unk("helper")
		}
		if h.AllocatesResources {
			p.rep.NeedsRateLimit = true
		}
	case isa.OpMLInfer:
		if !declared(p.prog.Models, in.Imm) {
			return und("model")
		}
		mc, ok := p.cfg.Models[in.Imm]
		if !ok {
			return unk("model")
		}
		if k := [2]int64{1, in.Imm}; !seen[k] {
			seen[k] = true
			p.rep.ModelBytes += mc.Bytes
		}
	case isa.OpMatMul:
		if !declared(p.prog.Mats, in.Imm) {
			return und("matrix")
		}
		ms, ok := p.cfg.Mats[in.Imm]
		if !ok {
			return unk("matrix")
		}
		if k := [2]int64{2, in.Imm}; !seen[k] {
			seen[k] = true
			p.rep.ModelBytes += ms.Bytes
		}
	case isa.OpMatchCtxt:
		if !declared(p.prog.Tables, in.Imm) {
			return und("table")
		}
		if !p.cfg.Tables[in.Imm] {
			return unk("table")
		}
	case isa.OpVecLd, isa.OpVecSt:
		if !declared(p.prog.Vecs, in.Imm) {
			return und("vector")
		}
		if _, ok := p.cfg.Vecs[in.Imm]; !ok {
			return unk("vector")
		}
	case isa.OpTailCall:
		if !declared(p.prog.Tails, in.Imm) {
			return und("tail program")
		}
		if _, ok := p.cfg.Tails[in.Imm]; !ok {
			return unk("tail program")
		}
		*tails = append(*tails, in.Imm)
	case isa.OpLdCtxt, isa.OpStCtxt:
		limit := int64(MaxCtxFields)
		if p.cfg.CtxFields > 0 && int64(p.cfg.CtxFields) < limit {
			limit = int64(p.cfg.CtxFields)
		}
		if in.Imm < 0 || in.Imm >= limit {
			return fmt.Errorf("%w: pc %d field %d (limit %d)", ErrFieldRange, pc, in.Imm, limit)
		}
	}
	return nil
}

// applyEffects writes the instruction's defs — init bits, vector shapes and
// value ranges — into the abstract state and returns its ML op cost.
func (p *pass) applyEffects(pc int, in isa.Instr, out *absState) (int64, error) {
	defR := func(idx uint8, iv isa.Interval) {
		out.regs |= 1 << idx
		out.riv[idx] = iv
	}
	riv := &out.riv
	switch in.Op {
	case isa.OpMov:
		defR(in.Dst, riv[in.Src])
	case isa.OpMovImm:
		defR(in.Dst, isa.Point(in.Imm))
	case isa.OpAdd:
		defR(in.Dst, riv[in.Dst].Add(riv[in.Src]))
	case isa.OpAddImm:
		defR(in.Dst, riv[in.Dst].Add(isa.Point(in.Imm)))
	case isa.OpSub:
		defR(in.Dst, riv[in.Dst].Sub(riv[in.Src]))
	case isa.OpMul:
		defR(in.Dst, riv[in.Dst].Mul(riv[in.Src]))
	case isa.OpMulImm:
		defR(in.Dst, riv[in.Dst].Mul(isa.Point(in.Imm)))
	case isa.OpDiv:
		defR(in.Dst, riv[in.Dst].Div(riv[in.Src]))
	case isa.OpMod:
		defR(in.Dst, riv[in.Dst].Mod(riv[in.Src]))
	case isa.OpAnd:
		defR(in.Dst, riv[in.Dst].And(riv[in.Src]))
	case isa.OpOr:
		defR(in.Dst, riv[in.Dst].Or(riv[in.Src]))
	case isa.OpXor:
		defR(in.Dst, riv[in.Dst].Xor(riv[in.Src]))
	case isa.OpShl:
		defR(in.Dst, riv[in.Dst].Shl(riv[in.Src]))
	case isa.OpShr:
		defR(in.Dst, riv[in.Dst].Shr(riv[in.Src]))
	case isa.OpNeg:
		defR(in.Dst, riv[in.Dst].Neg())
	case isa.OpAbs:
		defR(in.Dst, riv[in.Dst].Abs())
	case isa.OpMin:
		defR(in.Dst, riv[in.Dst].Min(riv[in.Src]))
	case isa.OpMax:
		defR(in.Dst, riv[in.Dst].Max(riv[in.Src]))
	case isa.OpLdStack:
		defR(in.Dst, out.siv[in.Imm])
	case isa.OpStStack:
		out.stack |= 1 << uint(in.Imm)
		out.siv[in.Imm] = riv[in.Src]
	case isa.OpLdCtxt, isa.OpMatchCtxt:
		defR(in.Dst, isa.TopInterval())
	case isa.OpStCtxt, isa.OpHistPush:
		p.rep.WritesCtx = true
	case isa.OpCall:
		ret := isa.TopInterval()
		if h, ok := p.cfg.Helpers[in.Imm]; ok {
			if h.Ret != nil {
				ret = *h.Ret
			}
			defR(0, ret)
			return h.Cost, nil
		}
		defR(0, ret)
	case isa.OpVecZero:
		if in.Imm < 0 || in.Imm > isa.MaxVecLen {
			return 0, fmt.Errorf("%w: pc %d len %d", ErrVecTooLong, pc, in.Imm)
		}
		out.vecs[in.Dst] = int(in.Imm)
		out.velem[in.Dst] = isa.Point(0)
	case isa.OpVecLd:
		n := p.cfg.Vecs[in.Imm]
		if n > isa.MaxVecLen {
			return 0, fmt.Errorf("%w: pc %d pool %d len %d", ErrVecTooLong, pc, in.Imm, n)
		}
		out.vecs[in.Dst] = n
		out.velem[in.Dst] = isa.TopInterval()
	case isa.OpVecLdHist:
		if in.Imm < 0 || in.Imm > isa.MaxVecLen {
			return 0, fmt.Errorf("%w: pc %d len %d", ErrVecTooLong, pc, in.Imm)
		}
		// The VM loads however much history exists, up to Imm.
		out.vecs[in.Dst] = vecUnknown
		out.velem[in.Dst] = isa.TopInterval()
	case isa.OpVecSet:
		n := out.vecs[in.Dst]
		if n >= 0 && (in.Imm < 0 || int(in.Imm) >= n) {
			return 0, fmt.Errorf("%w: pc %d v%d[%d] len %d", ErrShapeMismatch, pc, in.Dst, in.Imm, n)
		}
		out.velem[in.Dst] = out.velem[in.Dst].Union(riv[in.Src])
	case isa.OpScalarVal:
		n := out.vecs[in.Src]
		if n >= 0 && (in.Imm < 0 || int(in.Imm) >= n) {
			return 0, fmt.Errorf("%w: pc %d v%d[%d] len %d", ErrShapeMismatch, pc, in.Src, in.Imm, n)
		}
		defR(in.Dst, out.velem[in.Src])
	case isa.OpMatMul:
		ms := p.cfg.Mats[in.Imm]
		inLen := out.vecs[in.Src]
		if inLen >= 0 && inLen != ms.In {
			return 0, fmt.Errorf("%w: pc %d matmul %d wants in %d, v%d has %d",
				ErrShapeMismatch, pc, in.Imm, ms.In, in.Src, inLen)
		}
		if inLen == vecUnknown {
			p.warnf("pc %d matmul %d input length unknown", pc, in.Imm)
		}
		if ms.Out > isa.MaxVecLen {
			return 0, fmt.Errorf("%w: pc %d matmul out %d", ErrVecTooLong, pc, ms.Out)
		}
		out.vecs[in.Dst] = ms.Out
		out.velem[in.Dst] = isa.TopInterval()
		return 2 * int64(ms.In) * int64(ms.Out), nil
	case isa.OpVecAdd, isa.OpVecMul:
		a, b := out.vecs[in.Dst], out.vecs[in.Src]
		if a >= 0 && b >= 0 && a != b {
			return 0, fmt.Errorf("%w: pc %d v%d len %d vs v%d len %d",
				ErrShapeMismatch, pc, in.Dst, a, in.Src, b)
		}
		if in.Op == isa.OpVecAdd {
			out.velem[in.Dst] = out.velem[in.Dst].Add(out.velem[in.Src])
		} else {
			out.velem[in.Dst] = out.velem[in.Dst].Mul(out.velem[in.Src])
		}
		if a >= 0 {
			return int64(a), nil
		}
		return int64(isa.MaxVecLen), nil
	case isa.OpVecPush:
		out.velem[in.Dst] = out.velem[in.Dst].Union(riv[in.Src])
		if n := out.vecs[in.Dst]; n >= 0 {
			return int64(n), nil
		}
		return int64(isa.MaxVecLen), nil
	case isa.OpVecRelu, isa.OpVecQuant, isa.OpVecClamp:
		e := out.velem[in.Dst]
		switch in.Op {
		case isa.OpVecRelu:
			e = e.Max(isa.Point(0))
		case isa.OpVecQuant:
			mul, shift := isa.UnpackQuant(in.Imm)
			e = e.Mul(isa.Point(mul)).Shr(isa.Point(int64(shift)))
		case isa.OpVecClamp:
			e = e.Clamp(in.Imm)
		}
		out.velem[in.Dst] = e
		if n := out.vecs[in.Dst]; n >= 0 {
			return int64(n), nil
		}
		return int64(isa.MaxVecLen), nil
	case isa.OpVecArgMax, isa.OpVecSum:
		n := out.vecs[in.Src]
		lenIv := isa.Range(0, isa.MaxVecLen)
		if n >= 0 {
			lenIv = isa.Point(int64(n))
		}
		if in.Op == isa.OpVecArgMax {
			hi := lenIv.Hi - 1
			if hi < 0 {
				hi = 0
			}
			defR(in.Dst, isa.Range(0, hi))
		} else {
			defR(in.Dst, lenIv.Mul(out.velem[in.Src]))
		}
		if n >= 0 {
			return int64(n), nil
		}
		return int64(isa.MaxVecLen), nil
	case isa.OpVecDot:
		a, b := out.vecs[in.Src], out.vecs[uint8(in.Imm)]
		if a >= 0 && b >= 0 && a != b {
			return 0, fmt.Errorf("%w: pc %d vecdot v%d len %d vs v%d len %d",
				ErrShapeMismatch, pc, in.Src, a, uint8(in.Imm), b)
		}
		lenIv := isa.Range(0, isa.MaxVecLen)
		if a >= 0 {
			lenIv = isa.Point(int64(a))
		}
		defR(in.Dst, lenIv.Mul(out.velem[in.Src].Mul(out.velem[uint8(in.Imm)])))
		if a >= 0 {
			return 2 * int64(a), nil
		}
		return 2 * int64(isa.MaxVecLen), nil
	case isa.OpMLInfer:
		defR(in.Dst, isa.TopInterval())
		return p.cfg.Models[in.Imm].Ops, nil
	}
	return 0, nil
}
