package vm

import (
	"errors"
	"fmt"

	"rmtk/internal/aot/lower"
	"rmtk/internal/isa"
)

// jitOp is one compiled lowered node: it mutates the machine state and
// returns the index of the next node. Negative return values are control
// sentinels.
type jitOp func(e *exec) int

const (
	jitExit = -1 // program finished; R0 is the result
	jitTrap = -2 // runtime trap; e.trap holds the error
	// Tail calls return -(3+index) where index selects an entry of the
	// compiled tails slice.
	jitTailBase = -3
)

// jitNode is the executable form of one lower.Node.
type jitNode struct {
	op jitOp
	// cost is the number of original instructions a completed run of the
	// node charges to the step counter (a node that traps, exits or tail
	// calls charges exactly 1 — see runOps).
	cost int64
	// pc is the original pc of the node's first instruction (trap messages).
	pc int
}

// jitTail is one tail-call site's target: the program the site was compiled
// against and its compiled form.
type jitTail struct {
	id   int64
	prog *isa.Program
	jit  *JIT
}

// JIT is a verified program lowered by internal/aot/lower — proof-elided
// checks dropped, decided branches folded, superinstructions fused — and
// compiled into one Go closure per lowered node, with all operand decoding
// and jump-target resolution done at compile time. This stands in for JIT
// compilation to machine code (§3.1): the per-instruction interpreter
// decode/dispatch cost disappears, leaving only the operation itself.
type JIT struct {
	prog  *isa.Program
	code  []jitNode
	tails []jitTail
}

// Compile translates prog into a JIT engine; env resolves its tail-call
// targets, which are compiled transitively. Cycles among tail calls are
// rejected (the verifier also rejects them, this is defense in depth), and so
// is everything lower.Lower refuses — notably back-edges, which the
// interpreter would only stop at the step budget.
func Compile(env Env, prog *isa.Program) (*JIT, error) {
	return compile(env, prog, map[string]bool{})
}

func compile(env Env, prog *isa.Program, inProgress map[string]bool) (*JIT, error) {
	if len(prog.Insns) > isa.MaxProgInsns {
		return nil, ErrProgramTooBig
	}
	// An admitted program carries the verifier's facts, and so does every
	// tail target, itself admitted: decided branches fold on this tier too.
	lp, err := lower.Lower(prog)
	if err != nil {
		for _, m := range lowerErrClass {
			if errors.Is(err, m.cause) {
				err = fmt.Errorf("%w: %w", m.class, err)
				break
			}
		}
		return nil, fmt.Errorf("vm: compile %q: %w", prog.Name, err)
	}
	if inProgress[prog.Name] {
		return nil, fmt.Errorf("vm: tail-call cycle through %q", prog.Name)
	}
	inProgress[prog.Name] = true
	defer delete(inProgress, prog.Name)

	// Lower made every jump land on a later node, so control can only leave
	// the node list through its last node.
	if n := len(lp.Nodes); n == 0 || (lp.Nodes[n-1].Kind != lower.KExit && lp.Nodes[n-1].Kind != lower.KTail) {
		return nil, fmt.Errorf("vm: compile %q: %w", prog.Name, ErrFellOffEnd)
	}
	j := &JIT{prog: prog, code: make([]jitNode, len(lp.Nodes))}
	for idx := range lp.Nodes {
		nd := &lp.Nodes[idx]
		op, err := j.compileNode(env, idx, nd, inProgress)
		if err != nil {
			return nil, fmt.Errorf("vm: compile %q pc %d (%s): %w", prog.Name, nd.PC, prog.Insns[nd.PC], err)
		}
		j.code[idx] = jitNode{op: op, cost: nd.Cost, pc: nd.PC}
	}
	return j, nil
}

// lowerErrClass files Lower's refusals under the error classes the run-time
// checks they replace would have reported (first match wins).
var lowerErrClass = []struct{ cause, class error }{
	{lower.ErrJump, ErrBadJump},
	{lower.ErrStackSlot, ErrStackBounds},
	{lower.ErrVecLength, ErrVecTooLong},
	{lower.ErrBadProgram, ErrBadInstr},
}

// Name implements Engine.
func (j *JIT) Name() string { return "jit" }

// Run implements Engine.
func (j *JIT) Run(env Env, st *State, r1, r2, r3 int64) (int64, error) {
	st.reset(r1, r2, r3)
	// The closures take *exec through an indirect call, so a local exec
	// would escape to the heap on every run; it lives in the State instead.
	e := &st.x
	*e = exec{env: env, st: st, budget: DefaultStepBudget}
	ret, err := j.run(e)
	e.env = nil // a pooled State must not pin the caller's environment
	return ret, err
}

func (j *JIT) run(e *exec) (int64, error) {
	cur := j
	for depth := 0; ; depth++ {
		if depth > isa.MaxTailCalls {
			return 0, ErrTailDepth
		}
		tail, err := cur.runOps(e)
		if err != nil {
			return 0, err
		}
		if tail < 0 {
			return e.st.Regs[0], nil
		}
		// Resolve the target on every run, as the interpreter does: a target
		// removed since Compile traps with the environment's error on both
		// engines. A target id rebound to another program is where they part
		// on purpose: the interpreter re-encodes and follows the new program,
		// the JIT has no closures for it and refuses (core never reuses a
		// program id, so it never asks).
		t := &cur.tails[tail]
		target, err := e.env.TailProgram(t.id)
		if err != nil {
			return 0, err
		}
		if target != t.prog {
			return 0, fmt.Errorf("%w: tail target %d changed since compile", ErrNotCompiled, t.id)
		}
		cur = t.jit
	}
}

// runOps runs one program segment until Exit (tail < 0) or a tail call
// (tail indexes j.tails).
func (j *JIT) runOps(e *exec) (tail int, err error) {
	st := e.st
	idx, next := 0, 0
	// Proof-carrying programs with a static cost certificate reserve the
	// whole bound up front; the verifier's forward-only CFG makes the
	// per-node budget check redundant, so the dispatch loop drops it. Steps
	// are still counted (locally, charged at segment exit) so st.steps keeps
	// its executed-count semantics for SLOs and telemetry.
	if s := j.prog.StaticSteps; s > 0 && j.prog.Proofs != nil && st.steps+s <= e.budget {
		var sc int64
		for {
			n := &j.code[idx]
			if next = n.op(e); next < 0 {
				break
			}
			sc += n.cost
			idx = next
		}
		st.steps += sc + 1
	} else {
		for {
			n := &j.code[idx]
			if st.steps+n.cost > e.budget {
				// Forward-only segments keep a tail chain under today's
				// default budget; the check keeps the envelope independent
				// of that arithmetic. Steps read budget+1, as interpreted.
				st.steps = e.budget + 1
				return -1, ErrStepBudget
			}
			if next = n.op(e); next < 0 {
				st.steps++
				break
			}
			st.steps += n.cost
			idx = next
		}
	}
	switch next {
	case jitExit:
		return -1, nil
	case jitTrap:
		terr := e.trap
		e.trap = nil
		pc := j.code[idx].pc
		return -1, fmt.Errorf("pc %d (%s): %w", pc, j.prog.Insns[pc], terr)
	}
	return jitTailBase - next, nil
}

// jitFail records a trap from inside a closure.
func jitFail(e *exec, err error) int {
	e.trap = err
	return jitTrap
}

// matMul is V[dst] = W[id]·V[src] + b[id], shared by the matmul closure and
// the fused matvecsum node.
func (e *exec) matMul(dst, src int, id int64, checked bool) error {
	in := e.st.vecs[src]
	if checked && in == nil {
		return ErrVecUnset
	}
	if dst == src {
		// Output would overwrite the input mid-multiply; compute from a
		// scratch copy of the source.
		var tmp [isa.MaxVecLen]int64
		copy(tmp[:], in)
		in = tmp[:len(in)]
	}
	n, err := e.env.MatVec(id, in, e.st.vbuf[dst][:])
	if err != nil {
		return err
	}
	_, err = e.st.setVecLen(dst, n)
	return err
}

// compileNode translates one lowered node. The returned closure captures
// operand indices, immediates and successor node indices. A cleared proof
// bit in nd.PM keeps the corresponding runtime check (the captured checked
// flag); Lower already validated stack slots and constant vector lengths.
func (j *JIT) compileNode(env Env, idx int, nd *lower.Node, inProgress map[string]bool) (jitOp, error) {
	next, tgt := idx+1, nd.Target
	dst, src, imm, pm := int(nd.Dst), int(nd.Src), nd.Imm, nd.PM

	switch nd.Kind {
	case lower.KJmp:
		return func(*exec) int { return tgt }, nil
	case lower.KExit:
		return func(*exec) int { return jitExit }, nil
	case lower.KTail:
		target, err := env.TailProgram(imm)
		if err != nil {
			return nil, err
		}
		compiled, err := compile(env, target, inProgress)
		if err != nil {
			return nil, err
		}
		code := jitTailBase - len(j.tails)
		j.tails = append(j.tails, jitTail{id: imm, prog: target, jit: compiled})
		return func(*exec) int { return code }, nil
	case lower.KVecInit:
		vlen, elems := nd.Len, nd.Elems
		return func(e *exec) int {
			v, _ := e.st.setVecLen(dst, vlen)
			for i := len(elems); i < len(v); i++ {
				v[i] = 0
			}
			for i, s := range elems {
				v[i] = e.st.Regs[s]
			}
			return next
		}, nil
	case lower.KMatVecSum:
		// Only the matmul half can trap, so a trap here charges one step.
		checked, dst2 := pm&isa.ProofVecSet == 0, int(nd.Dst2)
		return func(e *exec) int {
			if err := e.matMul(dst, src, imm, checked); err != nil {
				return jitFail(e, err)
			}
			var sum int64
			for _, x := range e.st.vecs[dst] {
				sum += x
			}
			e.st.Regs[dst2] = sum
			return next
		}, nil
	case lower.KMulAddImm:
		mul, add := nd.Mul, nd.Add
		return func(e *exec) int { e.st.Regs[dst] = e.st.Regs[dst]*mul + add; return next }, nil
	}

	// KInstr and KBranch: the semantics of nd.Op.
	switch nd.Op {
	case isa.OpNop:
		return func(*exec) int { return next }, nil
	case isa.OpMov:
		return func(e *exec) int { e.st.Regs[dst] = e.st.Regs[src]; return next }, nil
	case isa.OpMovImm:
		return func(e *exec) int { e.st.Regs[dst] = imm; return next }, nil
	case isa.OpAdd:
		return func(e *exec) int { e.st.Regs[dst] += e.st.Regs[src]; return next }, nil
	case isa.OpAddImm:
		return func(e *exec) int { e.st.Regs[dst] += imm; return next }, nil
	case isa.OpSub:
		return func(e *exec) int { e.st.Regs[dst] -= e.st.Regs[src]; return next }, nil
	case isa.OpMul:
		return func(e *exec) int { e.st.Regs[dst] *= e.st.Regs[src]; return next }, nil
	case isa.OpMulImm:
		return func(e *exec) int { e.st.Regs[dst] *= imm; return next }, nil
	case isa.OpDiv:
		checked := pm&isa.ProofDivNonZero == 0
		return func(e *exec) int {
			d := e.st.Regs[src]
			if checked && d == 0 {
				return jitFail(e, ErrDivByZero)
			}
			e.st.Regs[dst] /= d
			return next
		}, nil
	case isa.OpMod:
		checked := pm&isa.ProofDivNonZero == 0
		return func(e *exec) int {
			d := e.st.Regs[src]
			if checked && d == 0 {
				return jitFail(e, ErrDivByZero)
			}
			e.st.Regs[dst] %= d
			return next
		}, nil
	case isa.OpAnd:
		return func(e *exec) int { e.st.Regs[dst] &= e.st.Regs[src]; return next }, nil
	case isa.OpOr:
		return func(e *exec) int { e.st.Regs[dst] |= e.st.Regs[src]; return next }, nil
	case isa.OpXor:
		return func(e *exec) int { e.st.Regs[dst] ^= e.st.Regs[src]; return next }, nil
	case isa.OpShl:
		return func(e *exec) int { e.st.Regs[dst] <<= uint64(e.st.Regs[src]) & 63; return next }, nil
	case isa.OpShr:
		return func(e *exec) int { e.st.Regs[dst] >>= uint64(e.st.Regs[src]) & 63; return next }, nil
	case isa.OpNeg:
		return func(e *exec) int { e.st.Regs[dst] = -e.st.Regs[dst]; return next }, nil
	case isa.OpAbs:
		return func(e *exec) int {
			if e.st.Regs[dst] < 0 {
				e.st.Regs[dst] = -e.st.Regs[dst]
			}
			return next
		}, nil
	case isa.OpMin:
		return func(e *exec) int {
			if e.st.Regs[src] < e.st.Regs[dst] {
				e.st.Regs[dst] = e.st.Regs[src]
			}
			return next
		}, nil
	case isa.OpMax:
		return func(e *exec) int {
			if e.st.Regs[src] > e.st.Regs[dst] {
				e.st.Regs[dst] = e.st.Regs[src]
			}
			return next
		}, nil

	case isa.OpJEq:
		return func(e *exec) int {
			if e.st.Regs[dst] == e.st.Regs[src] {
				return tgt
			}
			return next
		}, nil
	case isa.OpJNe:
		return func(e *exec) int {
			if e.st.Regs[dst] != e.st.Regs[src] {
				return tgt
			}
			return next
		}, nil
	case isa.OpJGt:
		return func(e *exec) int {
			if e.st.Regs[dst] > e.st.Regs[src] {
				return tgt
			}
			return next
		}, nil
	case isa.OpJGe:
		return func(e *exec) int {
			if e.st.Regs[dst] >= e.st.Regs[src] {
				return tgt
			}
			return next
		}, nil
	case isa.OpJLt:
		return func(e *exec) int {
			if e.st.Regs[dst] < e.st.Regs[src] {
				return tgt
			}
			return next
		}, nil
	case isa.OpJLe:
		return func(e *exec) int {
			if e.st.Regs[dst] <= e.st.Regs[src] {
				return tgt
			}
			return next
		}, nil
	case isa.OpJEqImm:
		return func(e *exec) int {
			if e.st.Regs[dst] == imm {
				return tgt
			}
			return next
		}, nil
	case isa.OpJNeImm:
		return func(e *exec) int {
			if e.st.Regs[dst] != imm {
				return tgt
			}
			return next
		}, nil
	case isa.OpJGtImm:
		return func(e *exec) int {
			if e.st.Regs[dst] > imm {
				return tgt
			}
			return next
		}, nil
	case isa.OpJGeImm:
		return func(e *exec) int {
			if e.st.Regs[dst] >= imm {
				return tgt
			}
			return next
		}, nil
	case isa.OpJLtImm:
		return func(e *exec) int {
			if e.st.Regs[dst] < imm {
				return tgt
			}
			return next
		}, nil
	case isa.OpJLeImm:
		return func(e *exec) int {
			if e.st.Regs[dst] <= imm {
				return tgt
			}
			return next
		}, nil

	case isa.OpLdStack:
		return func(e *exec) int { e.st.Regs[dst] = e.st.stack[imm]; return next }, nil
	case isa.OpStStack:
		return func(e *exec) int { e.st.stack[imm] = e.st.Regs[src]; return next }, nil

	case isa.OpLdCtxt:
		return func(e *exec) int {
			e.st.Regs[dst] = e.env.CtxLoad(e.st.Regs[src], imm)
			return next
		}, nil
	case isa.OpStCtxt:
		return func(e *exec) int {
			e.env.CtxStore(e.st.Regs[dst], imm, e.st.Regs[src])
			return next
		}, nil
	case isa.OpMatchCtxt:
		return func(e *exec) int {
			e.st.Regs[dst] = e.env.Match(imm, e.st.Regs[src])
			return next
		}, nil
	case isa.OpHistPush:
		return func(e *exec) int {
			e.env.CtxHistPush(e.st.Regs[dst], e.st.Regs[src])
			return next
		}, nil

	case isa.OpCall:
		// Lower left contracts only on call sites the verifier could not
		// prove; for the rest checkHelperArgs ranges over nothing.
		contracts := nd.Contracts
		return func(e *exec) int {
			r, args := &e.st.Regs, &e.st.args
			*args = [5]int64{r[1], r[2], r[3], r[4], r[5]}
			if err := checkHelperArgs(contracts, args); err != nil {
				return jitFail(e, err)
			}
			ret, err := e.env.Call(imm, args)
			if err != nil {
				return jitFail(e, fmt.Errorf("%w: helper %d: %w", ErrHelperFailed, imm, err))
			}
			r[0] = ret
			return next
		}, nil

	case isa.OpVecZero:
		return func(e *exec) int {
			v, _ := e.st.setVecLen(dst, int(imm))
			for i := range v {
				v[i] = 0
			}
			return next
		}, nil
	case isa.OpVecLd:
		return func(e *exec) int {
			n, err := e.env.VecLoad(imm, e.st.vbuf[dst][:])
			if err != nil {
				return jitFail(e, err)
			}
			if _, err = e.st.setVecLen(dst, n); err != nil {
				return jitFail(e, err)
			}
			return next
		}, nil
	case isa.OpVecSt:
		checked := pm&isa.ProofVecSet == 0
		return func(e *exec) int {
			if checked && e.st.vecs[src] == nil {
				return jitFail(e, ErrVecUnset)
			}
			if err := e.env.VecStore(imm, e.st.vecs[src]); err != nil {
				return jitFail(e, err)
			}
			return next
		}, nil
	case isa.OpVecLdHist:
		return func(e *exec) int {
			n := e.env.CtxHist(e.st.Regs[src], e.st.vbuf[dst][:imm])
			if _, err := e.st.setVecLen(dst, n); err != nil {
				return jitFail(e, err)
			}
			return next
		}, nil
	case isa.OpVecSet:
		checked := pm&isa.ProofVecIndexInBounds == 0
		return func(e *exec) int {
			v := e.st.vecs[dst]
			if checked && (imm < 0 || int(imm) >= len(v)) {
				return jitFail(e, ErrVecBounds)
			}
			v[imm] = e.st.Regs[src]
			return next
		}, nil
	case isa.OpVecPush:
		checked := pm&isa.ProofVecSet == 0
		return func(e *exec) int {
			v := e.st.vecs[dst]
			if checked && len(v) == 0 {
				return jitFail(e, ErrVecUnset)
			}
			copy(v, v[1:])
			v[len(v)-1] = e.st.Regs[src]
			return next
		}, nil
	case isa.OpScalarVal:
		checked := pm&isa.ProofVecIndexInBounds == 0
		return func(e *exec) int {
			v := e.st.vecs[src]
			if checked && (imm < 0 || int(imm) >= len(v)) {
				return jitFail(e, ErrVecBounds)
			}
			e.st.Regs[dst] = v[imm]
			return next
		}, nil
	case isa.OpMatMul:
		checked := pm&isa.ProofVecSet == 0
		return func(e *exec) int {
			if err := e.matMul(dst, src, imm, checked); err != nil {
				return jitFail(e, err)
			}
			return next
		}, nil
	case isa.OpVecAdd:
		checked := pm&isa.ProofVecLenMatch == 0
		return func(e *exec) int {
			d, s := e.st.vecs[dst], e.st.vecs[src]
			if checked && (d == nil || len(d) != len(s)) {
				return jitFail(e, ErrVecLen)
			}
			for i := range d {
				d[i] += s[i]
			}
			return next
		}, nil
	case isa.OpVecMul:
		checked := pm&isa.ProofVecLenMatch == 0
		return func(e *exec) int {
			d, s := e.st.vecs[dst], e.st.vecs[src]
			if checked && (d == nil || len(d) != len(s)) {
				return jitFail(e, ErrVecLen)
			}
			for i := range d {
				d[i] *= s[i]
			}
			return next
		}, nil
	case isa.OpVecRelu:
		return func(e *exec) int {
			d := e.st.vecs[dst]
			for i := range d {
				if d[i] < 0 {
					d[i] = 0
				}
			}
			return next
		}, nil
	case isa.OpVecQuant:
		mul, shift := isa.UnpackQuant(imm)
		return func(e *exec) int {
			d := e.st.vecs[dst]
			for i := range d {
				d[i] = (d[i] * mul) >> shift
			}
			return next
		}, nil
	case isa.OpVecClamp:
		lim := imm
		if lim < 0 {
			lim = -lim
		}
		return func(e *exec) int {
			d := e.st.vecs[dst]
			for i := range d {
				if d[i] > lim {
					d[i] = lim
				} else if d[i] < -lim {
					d[i] = -lim
				}
			}
			return next
		}, nil
	case isa.OpVecArgMax:
		checked := pm&isa.ProofVecSet == 0
		return func(e *exec) int {
			v := e.st.vecs[src]
			if checked && len(v) == 0 {
				return jitFail(e, ErrVecUnset)
			}
			best := 0
			for i := 1; i < len(v); i++ {
				if v[i] > v[best] {
					best = i
				}
			}
			e.st.Regs[dst] = int64(best)
			return next
		}, nil
	case isa.OpVecDot:
		checked, other := pm&isa.ProofVecLenMatch == 0, int(uint8(imm))
		return func(e *exec) int {
			a, b := e.st.vecs[src], e.st.vecs[other]
			if checked && (a == nil || len(a) != len(b)) {
				return jitFail(e, ErrVecLen)
			}
			var sum int64
			for i := range a {
				sum += a[i] * b[i]
			}
			e.st.Regs[dst] = sum
			return next
		}, nil
	case isa.OpVecSum:
		return func(e *exec) int {
			v := e.st.vecs[src]
			var sum int64
			for i := range v {
				sum += v[i]
			}
			e.st.Regs[dst] = sum
			return next
		}, nil
	case isa.OpMLInfer:
		checked := pm&isa.ProofVecSet == 0
		return func(e *exec) int {
			v := e.st.vecs[src]
			if checked && v == nil {
				return jitFail(e, ErrVecUnset)
			}
			ret, err := e.env.Infer(imm, v)
			if err != nil {
				return jitFail(e, err)
			}
			e.st.Regs[dst] = ret
			return next
		}, nil
	}
	return nil, fmt.Errorf("%w: opcode %d", ErrBadInstr, nd.Op)
}
