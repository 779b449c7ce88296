// Package vm executes verified RMT bytecode programs.
//
// Two bytecode engines are provided, mirroring §3.1 of the paper ("the
// program runs in the virtual machine in interpreted mode or it is
// just-in-time (JIT) compiled to machine code for efficiency"):
//
//   - Interpreter: decodes the wire-format byte stream instruction by
//     instruction, like an in-kernel bytecode interpreter. exec.step is the
//     reference semantics of the ISA; the proof-stripped checked variant is
//     what every other engine is differentially tested against.
//   - JIT: lowers the program through internal/aot/lower — the same IR the
//     build-time AOT compiler prints as Go, so proof-elided checks are
//     dropped and opcode pairs fused into superinstructions for dynamically
//     installed programs too — and translates each lowered node into a Go
//     closure with all operands, jump targets and resource handles
//     pre-resolved, which is the closest safe analogue of JIT-compiled
//     machine code available to a pure-Go reproduction.
//
// Both engines enforce the same runtime safety envelope: a step budget, a
// bounded tail-call depth, bounds-checked stack/vector accesses, and trapping
// division, and both report the same executed-step count (a fused node
// charges the instructions it was fused from). A trap aborts the program
// cleanly; the kernel then applies the hook's default action, so a buggy
// program can degrade performance but not correctness (§3.3).
package vm

import (
	"errors"
	"fmt"

	"rmtk/internal/isa"
)

// Env is the constrained world an RMT program may touch: the execution
// context, match tables, whitelisted helpers, and registered ML resources.
// The kernel (internal/core) provides the canonical implementation.
type Env interface {
	// CtxLoad returns field f of the execution-context record for key.
	// Missing records/fields read as zero.
	CtxLoad(key, field int64) int64
	// CtxStore writes field f of the execution-context record for key,
	// creating the record if needed.
	CtxStore(key, field, val int64)
	// CtxHistPush appends v to the history ring of the record for key.
	CtxHistPush(key, val int64)
	// CtxHist copies up to n most-recent history values for key into dst
	// (oldest first) and returns how many were copied.
	CtxHist(key int64, dst []int64) int
	// Match performs a lookup in table id and returns the matched entry's
	// action parameter, or -1 if no entry matched.
	Match(table, key int64) int64
	// Call invokes whitelisted helper id with arguments args[0..4] (the
	// contents of R1..R5) and returns the helper's result (stored to R0).
	Call(helper int64, args *[5]int64) (int64, error)
	// MatVec computes out = W·in + b for weight-matrix id and returns the
	// output length. out must have capacity for the matrix's output size.
	MatVec(id int64, in []int64, out []int64) (int, error)
	// Infer runs registered model id on the feature vector and returns its
	// scalar prediction.
	Infer(model int64, features []int64) (int64, error)
	// VecLoad copies pool vector id into dst and returns its length.
	VecLoad(id int64, dst []int64) (int, error)
	// VecStore copies src into pool vector id.
	VecStore(id int64, src []int64) error
	// TailProgram resolves a tail-call target program id.
	TailProgram(id int64) (*isa.Program, error)
}

// Runtime limits enforced identically by both engines.
const (
	// DefaultStepBudget bounds interpreted/JIT steps per invocation
	// (including across tail calls).
	DefaultStepBudget = 1 << 16
)

// Trap errors surfaced when a program violates its runtime envelope.
var (
	ErrStepBudget    = errors.New("vm: step budget exhausted")
	ErrDivByZero     = errors.New("vm: division by zero")
	ErrStackBounds   = errors.New("vm: stack access out of bounds")
	ErrVecBounds     = errors.New("vm: vector access out of bounds")
	ErrVecLen        = errors.New("vm: vector length mismatch")
	ErrVecUnset      = errors.New("vm: use of empty vector register")
	ErrTailDepth     = errors.New("vm: tail-call depth exceeded")
	ErrBadJump       = errors.New("vm: jump out of program")
	ErrFellOffEnd    = errors.New("vm: execution fell off program end")
	ErrBadInstr      = errors.New("vm: malformed instruction")
	ErrNotCompiled   = errors.New("vm: program not compiled")
	ErrHelperFailed  = errors.New("vm: helper call failed")
	ErrVecTooLong    = errors.New("vm: vector longer than MaxVecLen")
	ErrProgramTooBig = errors.New("vm: program exceeds MaxProgInsns")
	ErrHelperArgs    = errors.New("vm: helper argument outside declared contract")
)

// State is the per-invocation machine state. A State may be reused across
// invocations to avoid allocation on the hot path; Reset is implied by Run.
type State struct {
	Regs  [isa.NumRegs]int64
	stack [isa.StackWords]int64
	vecs  [isa.NumVRegs][]int64 // live slices into vbuf
	vbuf  [isa.NumVRegs][isa.MaxVecLen]int64
	steps int64
	x     exec // the JIT's per-Run invocation record (see JIT.Run)
	// args is the argument block of the helper call in progress. Env.Call
	// takes it by pointer through an interface, which would move a local
	// block to the heap on every call.
	args [5]int64
}

// NewState returns a fresh machine state.
func NewState() *State { return &State{} }

func (s *State) reset(r1, r2, r3 int64) {
	s.Regs = [isa.NumRegs]int64{}
	s.Regs[1], s.Regs[2], s.Regs[3] = r1, r2, r3
	for i := range s.vecs {
		s.vecs[i] = nil
	}
	s.steps = 0
}

// Steps reports how many instructions the last Run executed.
func (s *State) Steps() int64 { return s.steps }

func (s *State) setVecLen(v int, n int) ([]int64, error) {
	if n < 0 || n > isa.MaxVecLen {
		return nil, ErrVecTooLong
	}
	s.vecs[v] = s.vbuf[v][:n]
	return s.vecs[v], nil
}

// Engine is the common interface of the interpreter and the JIT.
type Engine interface {
	// Run executes the program against env with hook arguments
	// (r1, r2, r3) and returns the value of R0 at Exit. Engines hold no
	// per-invocation state, so one Engine may serve concurrent Runs with
	// distinct States and Envs.
	Run(env Env, st *State, r1, r2, r3 int64) (int64, error)
	// Name identifies the engine ("interp" or "jit").
	Name() string
}

// exec carries the pieces shared by one invocation across tail calls.
type exec struct {
	env    Env
	st     *State
	budget int64
	trap   error // set by compiled code when it returns jitTrap
	// contracts holds the helper argument contracts of the currently
	// executing program segment; call sites without a ProofHelperArgs proof
	// enforce them at runtime.
	contracts map[int64][]isa.Interval
}

// checkHelperArgs enforces a helper's declared argument contracts against
// the live R1..R5 values at an unproven call site.
func checkHelperArgs(cs []isa.Interval, args *[5]int64) error {
	for i, c := range cs {
		if i >= len(args) {
			break
		}
		if !c.Contains(args[i]) {
			return fmt.Errorf("%w: r%d=%d outside %s", ErrHelperArgs, i+1, args[i], c)
		}
	}
	return nil
}

// step dispatches one decoded instruction. It returns the next pc, a
// done flag (Exit), a tail-call target (or -1), or an error. pm carries the
// verifier's proofs for this instruction: a set bit means the corresponding
// runtime check was statically discharged and is elided here.
func (e *exec) step(in isa.Instr, pc int, progLen int, pm isa.ProofMask) (next int, done bool, tail int64, err error) {
	st := e.st
	r := &st.Regs
	next = pc + 1
	tail = -1
	switch in.Op {
	case isa.OpNop:
	case isa.OpMov:
		r[in.Dst] = r[in.Src]
	case isa.OpMovImm:
		r[in.Dst] = in.Imm
	case isa.OpAdd:
		r[in.Dst] += r[in.Src]
	case isa.OpAddImm:
		r[in.Dst] += in.Imm
	case isa.OpSub:
		r[in.Dst] -= r[in.Src]
	case isa.OpMul:
		r[in.Dst] *= r[in.Src]
	case isa.OpMulImm:
		r[in.Dst] *= in.Imm
	case isa.OpDiv:
		if pm&isa.ProofDivNonZero == 0 && r[in.Src] == 0 {
			return 0, false, -1, ErrDivByZero
		}
		r[in.Dst] /= r[in.Src]
	case isa.OpMod:
		if pm&isa.ProofDivNonZero == 0 && r[in.Src] == 0 {
			return 0, false, -1, ErrDivByZero
		}
		r[in.Dst] %= r[in.Src]
	case isa.OpAnd:
		r[in.Dst] &= r[in.Src]
	case isa.OpOr:
		r[in.Dst] |= r[in.Src]
	case isa.OpXor:
		r[in.Dst] ^= r[in.Src]
	case isa.OpShl:
		r[in.Dst] <<= uint64(r[in.Src]) & 63
	case isa.OpShr:
		r[in.Dst] >>= uint64(r[in.Src]) & 63
	case isa.OpNeg:
		r[in.Dst] = -r[in.Dst]
	case isa.OpAbs:
		if r[in.Dst] < 0 {
			r[in.Dst] = -r[in.Dst]
		}
	case isa.OpMin:
		if r[in.Src] < r[in.Dst] {
			r[in.Dst] = r[in.Src]
		}
	case isa.OpMax:
		if r[in.Src] > r[in.Dst] {
			r[in.Dst] = r[in.Src]
		}

	case isa.OpJmp:
		next = pc + 1 + int(in.Off)
	case isa.OpJEq:
		if r[in.Dst] == r[in.Src] {
			next = pc + 1 + int(in.Off)
		}
	case isa.OpJNe:
		if r[in.Dst] != r[in.Src] {
			next = pc + 1 + int(in.Off)
		}
	case isa.OpJGt:
		if r[in.Dst] > r[in.Src] {
			next = pc + 1 + int(in.Off)
		}
	case isa.OpJGe:
		if r[in.Dst] >= r[in.Src] {
			next = pc + 1 + int(in.Off)
		}
	case isa.OpJLt:
		if r[in.Dst] < r[in.Src] {
			next = pc + 1 + int(in.Off)
		}
	case isa.OpJLe:
		if r[in.Dst] <= r[in.Src] {
			next = pc + 1 + int(in.Off)
		}
	case isa.OpJEqImm:
		if r[in.Dst] == in.Imm {
			next = pc + 1 + int(in.Off)
		}
	case isa.OpJNeImm:
		if r[in.Dst] != in.Imm {
			next = pc + 1 + int(in.Off)
		}
	case isa.OpJGtImm:
		if r[in.Dst] > in.Imm {
			next = pc + 1 + int(in.Off)
		}
	case isa.OpJGeImm:
		if r[in.Dst] >= in.Imm {
			next = pc + 1 + int(in.Off)
		}
	case isa.OpJLtImm:
		if r[in.Dst] < in.Imm {
			next = pc + 1 + int(in.Off)
		}
	case isa.OpJLeImm:
		if r[in.Dst] <= in.Imm {
			next = pc + 1 + int(in.Off)
		}

	case isa.OpLdStack:
		if pm&isa.ProofStackInBounds == 0 && (in.Imm < 0 || in.Imm >= isa.StackWords) {
			return 0, false, -1, ErrStackBounds
		}
		r[in.Dst] = st.stack[uint8(in.Imm)&(isa.StackWords-1)]
	case isa.OpStStack:
		if pm&isa.ProofStackInBounds == 0 && (in.Imm < 0 || in.Imm >= isa.StackWords) {
			return 0, false, -1, ErrStackBounds
		}
		st.stack[uint8(in.Imm)&(isa.StackWords-1)] = r[in.Src]

	case isa.OpLdCtxt:
		r[in.Dst] = e.env.CtxLoad(r[in.Src], in.Imm)
	case isa.OpStCtxt:
		e.env.CtxStore(r[in.Dst], in.Imm, r[in.Src])
	case isa.OpMatchCtxt:
		r[in.Dst] = e.env.Match(in.Imm, r[in.Src])
	case isa.OpHistPush:
		e.env.CtxHistPush(r[in.Dst], r[in.Src])

	case isa.OpCall:
		args := &st.args
		*args = [5]int64{r[1], r[2], r[3], r[4], r[5]}
		if pm&isa.ProofHelperArgs == 0 && e.contracts != nil {
			if cs, ok := e.contracts[in.Imm]; ok {
				if herr := checkHelperArgs(cs, args); herr != nil {
					return 0, false, -1, herr
				}
			}
		}
		ret, herr := e.env.Call(in.Imm, args)
		if herr != nil {
			return 0, false, -1, fmt.Errorf("%w: helper %d: %w", ErrHelperFailed, in.Imm, herr)
		}
		r[0] = ret
	case isa.OpTailCall:
		return 0, false, in.Imm, nil
	case isa.OpExit:
		return 0, true, -1, nil

	case isa.OpVecZero:
		v, verr := st.setVecLen(int(in.Dst), int(in.Imm))
		if verr != nil {
			return 0, false, -1, verr
		}
		for i := range v {
			v[i] = 0
		}
	case isa.OpVecLd:
		n, verr := e.env.VecLoad(in.Imm, st.vbuf[in.Dst][:])
		if verr != nil {
			return 0, false, -1, verr
		}
		if _, verr = st.setVecLen(int(in.Dst), n); verr != nil {
			return 0, false, -1, verr
		}
	case isa.OpVecSt:
		if pm&isa.ProofVecSet == 0 && st.vecs[in.Src] == nil {
			return 0, false, -1, ErrVecUnset
		}
		if verr := e.env.VecStore(in.Imm, st.vecs[in.Src]); verr != nil {
			return 0, false, -1, verr
		}
	case isa.OpVecLdHist:
		if in.Imm < 0 || in.Imm > isa.MaxVecLen {
			return 0, false, -1, ErrVecTooLong
		}
		n := e.env.CtxHist(r[in.Src], st.vbuf[in.Dst][:in.Imm])
		if _, verr := st.setVecLen(int(in.Dst), n); verr != nil {
			return 0, false, -1, verr
		}
	case isa.OpVecSet:
		v := st.vecs[in.Dst]
		if pm&isa.ProofVecIndexInBounds == 0 && (in.Imm < 0 || int(in.Imm) >= len(v)) {
			return 0, false, -1, ErrVecBounds
		}
		v[in.Imm] = r[in.Src]
	case isa.OpVecPush:
		v := st.vecs[in.Dst]
		if pm&isa.ProofVecSet == 0 && len(v) == 0 {
			return 0, false, -1, ErrVecUnset
		}
		copy(v, v[1:])
		v[len(v)-1] = r[in.Src]
	case isa.OpScalarVal:
		v := st.vecs[in.Src]
		if pm&isa.ProofVecIndexInBounds == 0 && (in.Imm < 0 || int(in.Imm) >= len(v)) {
			return 0, false, -1, ErrVecBounds
		}
		r[in.Dst] = v[in.Imm]
	case isa.OpMatMul:
		src := st.vecs[in.Src]
		if pm&isa.ProofVecSet == 0 && src == nil {
			return 0, false, -1, ErrVecUnset
		}
		if in.Dst == in.Src {
			// Output would overwrite the input mid-multiply; compute into
			// a scratch copy of the source first.
			var tmp [isa.MaxVecLen]int64
			copy(tmp[:], src)
			src = tmp[:len(src)]
		}
		n, verr := e.env.MatVec(in.Imm, src, st.vbuf[in.Dst][:])
		if verr != nil {
			return 0, false, -1, verr
		}
		if _, verr = st.setVecLen(int(in.Dst), n); verr != nil {
			return 0, false, -1, verr
		}
	case isa.OpVecAdd:
		d, s := st.vecs[in.Dst], st.vecs[in.Src]
		if pm&isa.ProofVecLenMatch == 0 && (len(d) != len(s) || d == nil) {
			return 0, false, -1, ErrVecLen
		}
		for i := range d {
			d[i] += s[i]
		}
	case isa.OpVecMul:
		d, s := st.vecs[in.Dst], st.vecs[in.Src]
		if pm&isa.ProofVecLenMatch == 0 && (len(d) != len(s) || d == nil) {
			return 0, false, -1, ErrVecLen
		}
		for i := range d {
			d[i] *= s[i]
		}
	case isa.OpVecRelu:
		d := st.vecs[in.Dst]
		for i := range d {
			if d[i] < 0 {
				d[i] = 0
			}
		}
	case isa.OpVecQuant:
		mul, shift := isa.UnpackQuant(in.Imm)
		d := st.vecs[in.Dst]
		for i := range d {
			d[i] = (d[i] * mul) >> shift
		}
	case isa.OpVecClamp:
		d := st.vecs[in.Dst]
		lim := in.Imm
		if lim < 0 {
			lim = -lim
		}
		for i := range d {
			if d[i] > lim {
				d[i] = lim
			} else if d[i] < -lim {
				d[i] = -lim
			}
		}
	case isa.OpVecArgMax:
		v := st.vecs[in.Src]
		if pm&isa.ProofVecSet == 0 && len(v) == 0 {
			return 0, false, -1, ErrVecUnset
		}
		best := 0
		for i := 1; i < len(v); i++ {
			if v[i] > v[best] {
				best = i
			}
		}
		r[in.Dst] = int64(best)
	case isa.OpVecDot:
		a := st.vecs[in.Src]
		b := st.vecs[uint8(in.Imm)]
		if pm&isa.ProofVecLenMatch == 0 && (len(a) != len(b) || a == nil) {
			return 0, false, -1, ErrVecLen
		}
		var sum int64
		for i := range a {
			sum += a[i] * b[i]
		}
		r[in.Dst] = sum
	case isa.OpVecSum:
		v := st.vecs[in.Src]
		var sum int64
		for i := range v {
			sum += v[i]
		}
		r[in.Dst] = sum
	case isa.OpMLInfer:
		v := st.vecs[in.Src]
		if pm&isa.ProofVecSet == 0 && v == nil {
			return 0, false, -1, ErrVecUnset
		}
		ret, ierr := e.env.Infer(in.Imm, v)
		if ierr != nil {
			return 0, false, -1, ierr
		}
		r[in.Dst] = ret

	default:
		return 0, false, -1, fmt.Errorf("%w: opcode %d", ErrBadInstr, in.Op)
	}
	if next < 0 || next > progLen {
		return 0, false, -1, ErrBadJump
	}
	return next, false, -1, nil
}
