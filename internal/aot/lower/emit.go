package lower

import (
	"bytes"
	"fmt"
	"strconv"

	"rmtk/internal/isa"
)

// EmitResult reports what the emitted function needs from its surrounding
// file (cmd/rmtkgen aggregates these across the corpus to build the import
// block of the generated file).
type EmitResult struct {
	// NeedsFmt is set when the function body wraps errors with fmt.Errorf
	// (helper call sites).
	NeedsFmt bool
}

// Emittable reports whether EmitFunc can express p as compilable Go; the
// closure JIT runs everything it declines. cmd/rmtkgen skips a program on
// ErrTailCall or ErrUnsupported.
func (p *Prog) Emittable() error {
	for i := range p.Nodes {
		nd := &p.Nodes[i]
		switch {
		case nd.Kind == KTail:
			return fmt.Errorf("%w: pc %d", ErrTailCall, nd.PC)
		case nd.Kind == KInstr && (nd.Op == isa.OpVecSet || nd.Op == isa.OpScalarVal) && nd.Imm < 0:
			// Admissible when the vector length is statically unknown — the
			// check always fires at run time — but a constant negative index
			// cannot be emitted as Go.
			return fmt.Errorf("%w: pc %d negative vector index %d", ErrUnsupported, nd.PC, nd.Imm)
		}
	}
	return nil
}

// EmitFunc appends the Go source of one Emittable program to b: a function
//
//	func <fnName>(env vm.Env, m *Scratch, r1, r2, r3 int64) (int64, int64, error)
//
// returning (R0, steps, trap). The emitted body lives in package aot: vm.Env
// supplies the environment, Scratch supplies the pooled stack/vector buffers,
// and the trap sentinels are the vm package's, so a generated program traps
// with exactly the errors the interpreter and JIT would surface.
//
// Emission rules the generated code relies on:
//
//   - every cross-node local (scalar registers, vector registers, steps) is
//     predeclared at the top and blank-used once, so forward gotos never jump
//     a declaration into scope and written-only registers still compile;
//   - per-node temporaries are declared with := inside a block statement, so
//     they leave scope before any label a goto could target;
//   - labels are emitted only for nodes some jump actually targets;
//   - step charges are batched: straight-line nodes accumulate a constant
//     that is flushed before every label, control transfer and return, so the
//     hot path pays one addition per basic block instead of one per
//     instruction (trap paths charge the partial count of the trapping node).
func EmitFunc(b *bytes.Buffer, p *Prog, fnName string) EmitResult {
	e := &emitter{b: b, p: p}
	e.scan()

	fmt.Fprintf(b, "// %s is program %q compiled ahead of time: %d bytecode instructions\n", fnName, p.Name, p.OrigInsns)
	fmt.Fprintf(b, "// lowered to %d nodes (%d dead instructions dropped, %d branches folded,\n", len(p.Nodes), p.DeadInsns, p.FoldedBranches)
	fmt.Fprintf(b, "// %d superinstruction fusions).\n", p.FusedPairs)
	fmt.Fprintf(b, "func %s(env vm.Env, m *Scratch, r1, r2, r3 int64) (int64, int64, error) {\n", fnName)
	fmt.Fprintf(b, "\tvar steps int64\n")
	if len(e.declRegs) > 0 {
		fmt.Fprintf(b, "\tvar %s int64\n", joinNames("r", e.declRegs))
		fmt.Fprintf(b, "\t%s = %s\n", blanks(len(e.declRegs)), joinNames("r", e.declRegs))
	}
	if len(e.declVecs) > 0 {
		fmt.Fprintf(b, "\tvar %s []int64\n", joinNames("v", e.declVecs))
		fmt.Fprintf(b, "\t%s = %s\n", blanks(len(e.declVecs)), joinNames("v", e.declVecs))
	}
	for idx := range p.Nodes {
		e.emitNode(idx)
	}
	fmt.Fprintf(b, "}\n")
	return EmitResult{NeedsFmt: e.needsFmt}
}

// emitter carries per-function emission state.
type emitter struct {
	b        *bytes.Buffer
	p        *Prog
	pend     int64 // accumulated step charges not yet flushed
	needsFmt bool
	declRegs []int // scalar registers to predeclare (excludes params r1-r3)
	declVecs []int // vector registers to predeclare
}

// scan collects which scalar and vector registers the program touches, so
// only those are declared.
func (e *emitter) scan() {
	var regs [isa.NumRegs]bool
	var vecs [isa.NumVRegs]bool
	markReg := func(i uint8) { regs[i] = true }
	markVec := func(i uint8) { vecs[i] = true }
	for i := range e.p.Nodes {
		nd := &e.p.Nodes[i]
		switch nd.Kind {
		case KJmp:
		case KBranch:
			markReg(nd.Dst)
			if !condIsImm(nd.Op) {
				markReg(nd.Src)
			}
		case KExit:
			markReg(0)
		case KVecInit:
			markVec(nd.Dst)
			for _, s := range nd.Elems {
				markReg(s)
			}
		case KMatVecSum:
			markVec(nd.Dst)
			markVec(nd.Src)
			markReg(nd.Dst2)
		case KMulAddImm:
			markReg(nd.Dst)
		case KInstr:
			switch nd.Op {
			case isa.OpNop:
			case isa.OpMovImm, isa.OpAddImm, isa.OpMulImm, isa.OpNeg, isa.OpAbs, isa.OpLdStack:
				markReg(nd.Dst)
			case isa.OpStStack, isa.OpStCtxt, isa.OpHistPush:
				markReg(nd.Dst)
				markReg(nd.Src)
			case isa.OpLdCtxt, isa.OpMatchCtxt:
				markReg(nd.Dst)
				markReg(nd.Src)
			case isa.OpCall:
				for i := uint8(0); i <= 5; i++ {
					markReg(i)
				}
			case isa.OpVecZero, isa.OpVecRelu, isa.OpVecQuant, isa.OpVecClamp:
				markVec(nd.Dst)
			case isa.OpVecLd, isa.OpVecSt:
				if nd.Op == isa.OpVecSt {
					markVec(nd.Src)
				} else {
					markVec(nd.Dst)
				}
			case isa.OpVecLdHist:
				markVec(nd.Dst)
				markReg(nd.Src)
			case isa.OpVecSet, isa.OpVecPush:
				markVec(nd.Dst)
				markReg(nd.Src)
			case isa.OpScalarVal, isa.OpVecArgMax, isa.OpVecSum:
				markReg(nd.Dst)
				markVec(nd.Src)
			case isa.OpMatMul:
				markVec(nd.Dst)
				markVec(nd.Src)
			case isa.OpVecAdd, isa.OpVecMul:
				markVec(nd.Dst)
				markVec(nd.Src)
			case isa.OpVecDot:
				markReg(nd.Dst)
				markVec(nd.Src)
				markVec(uint8(nd.Imm))
			case isa.OpMLInfer:
				markReg(nd.Dst)
				markVec(nd.Src)
			default: // scalar two-operand ALU
				markReg(nd.Dst)
				markReg(nd.Src)
			}
		}
	}
	for i, on := range regs {
		if on && i != 1 && i != 2 && i != 3 { // r1-r3 are parameters
			e.declRegs = append(e.declRegs, i)
		}
	}
	for i, on := range vecs {
		if on {
			e.declVecs = append(e.declVecs, i)
		}
	}
}

// flush emits the pending step charge (before labels, transfers, returns).
func (e *emitter) flush() {
	if e.pend > 0 {
		fmt.Fprintf(e.b, "\tsteps += %d\n", e.pend)
		e.pend = 0
	}
}

// trap emits a trap return charging the partial cost of the trapping node on
// top of the pending constant. indent nests inside the surrounding if/block.
func (e *emitter) trap(indent string, partial int64, errExpr string) {
	fmt.Fprintf(e.b, "%ssteps += %d\n", indent, e.pend+partial)
	fmt.Fprintf(e.b, "%sreturn 0, steps, %s\n", indent, errExpr)
}

func lit(v int64) string { return strconv.FormatInt(v, 10) }

func reg(i uint8) string { return "r" + strconv.Itoa(int(i)) }

func vec(i uint8) string { return "v" + strconv.Itoa(int(i)) }

// condExpr renders a KBranch comparison.
func condExpr(nd *Node) string {
	rel := map[isa.Opcode]string{
		isa.OpJEq: "==", isa.OpJNe: "!=", isa.OpJGt: ">", isa.OpJGe: ">=", isa.OpJLt: "<", isa.OpJLe: "<=",
		isa.OpJEqImm: "==", isa.OpJNeImm: "!=", isa.OpJGtImm: ">", isa.OpJGeImm: ">=", isa.OpJLtImm: "<", isa.OpJLeImm: "<=",
	}[nd.Op]
	rhs := reg(nd.Src)
	if condIsImm(nd.Op) {
		rhs = lit(nd.Imm)
	}
	return fmt.Sprintf("%s %s %s", reg(nd.Dst), rel, rhs)
}

func (e *emitter) emitNode(idx int) {
	nd := &e.p.Nodes[idx]
	b := e.b
	if nd.Label {
		e.flush()
		fmt.Fprintf(b, "L%d:\n", nd.PC)
	}
	switch nd.Kind {
	case KJmp:
		e.pend += nd.Cost
		e.flush()
		fmt.Fprintf(b, "\tgoto L%d\n", e.p.Nodes[nd.Target].PC)
	case KBranch:
		e.pend += nd.Cost
		e.flush()
		fmt.Fprintf(b, "\tif %s {\n\t\tgoto L%d\n\t}\n", condExpr(nd), e.p.Nodes[nd.Target].PC)
	case KExit:
		e.pend += nd.Cost
		e.flush()
		fmt.Fprintf(b, "\treturn r0, steps, nil\n")
	case KVecInit:
		fmt.Fprintf(b, "\t%s = m.Vbuf[%d][:%d]\n", vec(nd.Dst), nd.Dst, nd.Len)
		for i, src := range nd.Elems {
			fmt.Fprintf(b, "\t%s[%d] = %s\n", vec(nd.Dst), i, reg(src))
		}
		if len(nd.Elems) < nd.Len {
			fmt.Fprintf(b, "\tfor i := %d; i < %d; i++ {\n\t\t%s[i] = 0\n\t}\n", len(nd.Elems), nd.Len, vec(nd.Dst))
		}
		e.pend += nd.Cost
	case KMatVecSum:
		fmt.Fprintf(b, "\t{\n")
		src := vec(nd.Src)
		if nd.PM&isa.ProofVecSet == 0 {
			fmt.Fprintf(b, "\t\tif %s == nil {\n", src)
			e.trap("\t\t\t", 1, "vm.ErrVecUnset")
			fmt.Fprintf(b, "\t\t}\n")
		}
		if nd.Dst == nd.Src {
			fmt.Fprintf(b, "\t\tsrc := %s\n", src)
			fmt.Fprintf(b, "\t\tcopy(m.Tmp[:], src)\n")
			fmt.Fprintf(b, "\t\tsrc = m.Tmp[:len(src)]\n")
			src = "src"
		}
		fmt.Fprintf(b, "\t\tn, err := env.MatVec(%s, %s, m.Vbuf[%d][:])\n", lit(nd.Imm), src, nd.Dst)
		fmt.Fprintf(b, "\t\tif err != nil {\n")
		e.trap("\t\t\t", 1, "err")
		fmt.Fprintf(b, "\t\t}\n")
		fmt.Fprintf(b, "\t\tif n < 0 || n > %d {\n", isa.MaxVecLen)
		e.trap("\t\t\t", 1, "vm.ErrVecTooLong")
		fmt.Fprintf(b, "\t\t}\n")
		fmt.Fprintf(b, "\t\t%s = m.Vbuf[%d][:n]\n", vec(nd.Dst), nd.Dst)
		fmt.Fprintf(b, "\t\tvar sum int64\n")
		fmt.Fprintf(b, "\t\tfor _, x := range %s {\n\t\t\tsum += x\n\t\t}\n", vec(nd.Dst))
		fmt.Fprintf(b, "\t\t%s = sum\n", reg(nd.Dst2))
		fmt.Fprintf(b, "\t}\n")
		e.pend += nd.Cost
	case KMulAddImm:
		fmt.Fprintf(b, "\t%s = %s*%s + %s\n", reg(nd.Dst), reg(nd.Dst), lit(nd.Mul), lit(nd.Add))
		e.pend += nd.Cost
	case KInstr:
		e.emitInstr(nd)
		e.pend += nd.Cost
	}
}

// emitInstr renders one unfused instruction node (cost charged by caller).
func (e *emitter) emitInstr(nd *Node) {
	b := e.b
	d, s := reg(nd.Dst), reg(nd.Src)
	switch nd.Op {
	case isa.OpNop:
		// Cost-only (an original nop or a branch folded to its fall-through).
	case isa.OpMov:
		fmt.Fprintf(b, "\t%s = %s\n", d, s)
	case isa.OpMovImm:
		fmt.Fprintf(b, "\t%s = %s\n", d, lit(nd.Imm))
	case isa.OpAdd:
		fmt.Fprintf(b, "\t%s += %s\n", d, s)
	case isa.OpAddImm:
		fmt.Fprintf(b, "\t%s += %s\n", d, lit(nd.Imm))
	case isa.OpSub:
		fmt.Fprintf(b, "\t%s -= %s\n", d, s)
	case isa.OpMul:
		fmt.Fprintf(b, "\t%s *= %s\n", d, s)
	case isa.OpMulImm:
		fmt.Fprintf(b, "\t%s *= %s\n", d, lit(nd.Imm))
	case isa.OpDiv, isa.OpMod:
		if nd.PM&isa.ProofDivNonZero == 0 {
			fmt.Fprintf(b, "\tif %s == 0 {\n", s)
			e.trap("\t\t", 1, "vm.ErrDivByZero")
			fmt.Fprintf(b, "\t}\n")
		}
		op := "/="
		if nd.Op == isa.OpMod {
			op = "%="
		}
		fmt.Fprintf(b, "\t%s %s %s\n", d, op, s)
	case isa.OpAnd:
		fmt.Fprintf(b, "\t%s &= %s\n", d, s)
	case isa.OpOr:
		fmt.Fprintf(b, "\t%s |= %s\n", d, s)
	case isa.OpXor:
		fmt.Fprintf(b, "\t%s ^= %s\n", d, s)
	case isa.OpShl:
		fmt.Fprintf(b, "\t%s <<= uint64(%s) & 63\n", d, s)
	case isa.OpShr:
		fmt.Fprintf(b, "\t%s >>= uint64(%s) & 63\n", d, s)
	case isa.OpNeg:
		fmt.Fprintf(b, "\t%s = -%s\n", d, d)
	case isa.OpAbs:
		fmt.Fprintf(b, "\tif %s < 0 {\n\t\t%s = -%s\n\t}\n", d, d, d)
	case isa.OpMin:
		fmt.Fprintf(b, "\tif %s < %s {\n\t\t%s = %s\n\t}\n", s, d, d, s)
	case isa.OpMax:
		fmt.Fprintf(b, "\tif %s > %s {\n\t\t%s = %s\n\t}\n", s, d, d, s)

	case isa.OpLdStack:
		fmt.Fprintf(b, "\t%s = m.Stack[%s]\n", d, lit(nd.Imm))
	case isa.OpStStack:
		fmt.Fprintf(b, "\tm.Stack[%s] = %s\n", lit(nd.Imm), s)

	case isa.OpLdCtxt:
		fmt.Fprintf(b, "\t%s = env.CtxLoad(%s, %s)\n", d, s, lit(nd.Imm))
	case isa.OpStCtxt:
		fmt.Fprintf(b, "\tenv.CtxStore(%s, %s, %s)\n", d, lit(nd.Imm), s)
	case isa.OpMatchCtxt:
		fmt.Fprintf(b, "\t%s = env.Match(%s, %s)\n", d, lit(nd.Imm), s)
	case isa.OpHistPush:
		fmt.Fprintf(b, "\tenv.CtxHistPush(%s, %s)\n", d, s)

	case isa.OpCall:
		e.needsFmt = true
		fmt.Fprintf(b, "\t{\n")
		// The argument array lives in the pooled scratch: a local would
		// escape through the vm.Env interface and cost an allocation per call.
		fmt.Fprintf(b, "\t\tm.Args = [5]int64{r1, r2, r3, r4, r5}\n")
		for i, c := range nd.Contracts {
			if i >= 5 || c.IsTop() {
				continue
			}
			// Inlined contract: the comparison vm.checkHelperArgs would run.
			fmt.Fprintf(b, "\t\tif %s < %s || %s > %s {\n", reg(uint8(1+i)), lit(c.Lo), reg(uint8(1+i)), lit(c.Hi))
			e.trap("\t\t\t", 1, fmt.Sprintf("fmt.Errorf(\"%%w: r%d=%%d outside %s\", vm.ErrHelperArgs, %s)", 1+i, c, reg(uint8(1+i))))
			fmt.Fprintf(b, "\t\t}\n")
		}
		fmt.Fprintf(b, "\t\tret, err := env.Call(%s, &m.Args)\n", lit(nd.Imm))
		fmt.Fprintf(b, "\t\tif err != nil {\n")
		e.trap("\t\t\t", 1, fmt.Sprintf("fmt.Errorf(\"%%w: helper %d: %%w\", vm.ErrHelperFailed, err)", nd.Imm))
		fmt.Fprintf(b, "\t\t}\n")
		fmt.Fprintf(b, "\t\tr0 = ret\n")
		fmt.Fprintf(b, "\t}\n")

	case isa.OpVecZero:
		dv := vec(nd.Dst)
		fmt.Fprintf(b, "\t%s = m.Vbuf[%d][:%s]\n", dv, nd.Dst, lit(nd.Imm))
		fmt.Fprintf(b, "\tfor i := range %s {\n\t\t%s[i] = 0\n\t}\n", dv, dv)
	case isa.OpVecLd:
		fmt.Fprintf(b, "\t{\n")
		fmt.Fprintf(b, "\t\tn, err := env.VecLoad(%s, m.Vbuf[%d][:])\n", lit(nd.Imm), nd.Dst)
		fmt.Fprintf(b, "\t\tif err != nil {\n")
		e.trap("\t\t\t", 1, "err")
		fmt.Fprintf(b, "\t\t}\n")
		fmt.Fprintf(b, "\t\tif n < 0 || n > %d {\n", isa.MaxVecLen)
		e.trap("\t\t\t", 1, "vm.ErrVecTooLong")
		fmt.Fprintf(b, "\t\t}\n")
		fmt.Fprintf(b, "\t\t%s = m.Vbuf[%d][:n]\n", vec(nd.Dst), nd.Dst)
		fmt.Fprintf(b, "\t}\n")
	case isa.OpVecSt:
		sv := vec(nd.Src)
		if nd.PM&isa.ProofVecSet == 0 {
			fmt.Fprintf(b, "\tif %s == nil {\n", sv)
			e.trap("\t\t", 1, "vm.ErrVecUnset")
			fmt.Fprintf(b, "\t}\n")
		}
		fmt.Fprintf(b, "\tif err := env.VecStore(%s, %s); err != nil {\n", lit(nd.Imm), sv)
		e.trap("\t\t", 1, "err")
		fmt.Fprintf(b, "\t}\n")
	case isa.OpVecLdHist:
		fmt.Fprintf(b, "\t{\n")
		fmt.Fprintf(b, "\t\tn := env.CtxHist(%s, m.Vbuf[%d][:%s])\n", reg(nd.Src), nd.Dst, lit(nd.Imm))
		fmt.Fprintf(b, "\t\tif n < 0 || n > %d {\n", isa.MaxVecLen)
		e.trap("\t\t\t", 1, "vm.ErrVecTooLong")
		fmt.Fprintf(b, "\t\t}\n")
		fmt.Fprintf(b, "\t\t%s = m.Vbuf[%d][:n]\n", vec(nd.Dst), nd.Dst)
		fmt.Fprintf(b, "\t}\n")
	case isa.OpVecSet:
		dv := vec(nd.Dst)
		if nd.PM&isa.ProofVecIndexInBounds == 0 {
			// Emittable rejected negative indices, so only the upper bound is live.
			fmt.Fprintf(b, "\tif len(%s) <= %s {\n", dv, lit(nd.Imm))
			e.trap("\t\t", 1, "vm.ErrVecBounds")
			fmt.Fprintf(b, "\t}\n")
		}
		fmt.Fprintf(b, "\t%s[%s] = %s\n", dv, lit(nd.Imm), reg(nd.Src))
	case isa.OpVecPush:
		dv := vec(nd.Dst)
		if nd.PM&isa.ProofVecSet == 0 {
			fmt.Fprintf(b, "\tif len(%s) == 0 {\n", dv)
			e.trap("\t\t", 1, "vm.ErrVecUnset")
			fmt.Fprintf(b, "\t}\n")
		}
		fmt.Fprintf(b, "\tcopy(%s, %s[1:])\n", dv, dv)
		fmt.Fprintf(b, "\t%s[len(%s)-1] = %s\n", dv, dv, reg(nd.Src))
	case isa.OpScalarVal:
		sv := vec(nd.Src)
		if nd.PM&isa.ProofVecIndexInBounds == 0 {
			fmt.Fprintf(b, "\tif len(%s) <= %s {\n", sv, lit(nd.Imm))
			e.trap("\t\t", 1, "vm.ErrVecBounds")
			fmt.Fprintf(b, "\t}\n")
		}
		fmt.Fprintf(b, "\t%s = %s[%s]\n", d, sv, lit(nd.Imm))
	case isa.OpMatMul:
		fmt.Fprintf(b, "\t{\n")
		src := vec(nd.Src)
		if nd.PM&isa.ProofVecSet == 0 {
			fmt.Fprintf(b, "\t\tif %s == nil {\n", src)
			e.trap("\t\t\t", 1, "vm.ErrVecUnset")
			fmt.Fprintf(b, "\t\t}\n")
		}
		if nd.Dst == nd.Src {
			fmt.Fprintf(b, "\t\tsrc := %s\n", src)
			fmt.Fprintf(b, "\t\tcopy(m.Tmp[:], src)\n")
			fmt.Fprintf(b, "\t\tsrc = m.Tmp[:len(src)]\n")
			src = "src"
		}
		fmt.Fprintf(b, "\t\tn, err := env.MatVec(%s, %s, m.Vbuf[%d][:])\n", lit(nd.Imm), src, nd.Dst)
		fmt.Fprintf(b, "\t\tif err != nil {\n")
		e.trap("\t\t\t", 1, "err")
		fmt.Fprintf(b, "\t\t}\n")
		fmt.Fprintf(b, "\t\tif n < 0 || n > %d {\n", isa.MaxVecLen)
		e.trap("\t\t\t", 1, "vm.ErrVecTooLong")
		fmt.Fprintf(b, "\t\t}\n")
		fmt.Fprintf(b, "\t\t%s = m.Vbuf[%d][:n]\n", vec(nd.Dst), nd.Dst)
		fmt.Fprintf(b, "\t}\n")
	case isa.OpVecAdd, isa.OpVecMul:
		dv, sv := vec(nd.Dst), vec(nd.Src)
		if nd.PM&isa.ProofVecLenMatch == 0 {
			fmt.Fprintf(b, "\tif len(%s) != len(%s) || %s == nil {\n", dv, sv, dv)
			e.trap("\t\t", 1, "vm.ErrVecLen")
			fmt.Fprintf(b, "\t}\n")
		}
		op := "+="
		if nd.Op == isa.OpVecMul {
			op = "*="
		}
		fmt.Fprintf(b, "\tfor i := range %s {\n\t\t%s[i] %s %s[i]\n\t}\n", dv, dv, op, sv)
	case isa.OpVecRelu:
		dv := vec(nd.Dst)
		fmt.Fprintf(b, "\tfor i := range %s {\n\t\tif %s[i] < 0 {\n\t\t\t%s[i] = 0\n\t\t}\n\t}\n", dv, dv, dv)
	case isa.OpVecQuant:
		mul, shift := isa.UnpackQuant(nd.Imm)
		dv := vec(nd.Dst)
		fmt.Fprintf(b, "\tfor i := range %s {\n\t\t%s[i] = (%s[i] * %d) >> %d\n\t}\n", dv, dv, dv, mul, shift)
	case isa.OpVecClamp:
		hi := nd.Imm
		if hi < 0 {
			hi = -hi // MinInt64 wraps to itself, matching the VM
		}
		lo := -hi
		dv := vec(nd.Dst)
		fmt.Fprintf(b, "\tfor i := range %s {\n", dv)
		fmt.Fprintf(b, "\t\tif %s[i] > %s {\n\t\t\t%s[i] = %s\n\t\t} else if %s[i] < %s {\n\t\t\t%s[i] = %s\n\t\t}\n", dv, lit(hi), dv, lit(hi), dv, lit(lo), dv, lit(lo))
		fmt.Fprintf(b, "\t}\n")
	case isa.OpVecArgMax:
		sv := vec(nd.Src)
		if nd.PM&isa.ProofVecSet == 0 {
			fmt.Fprintf(b, "\tif len(%s) == 0 {\n", sv)
			e.trap("\t\t", 1, "vm.ErrVecUnset")
			fmt.Fprintf(b, "\t}\n")
		}
		fmt.Fprintf(b, "\t{\n")
		fmt.Fprintf(b, "\t\tbest := 0\n")
		fmt.Fprintf(b, "\t\tfor i := 1; i < len(%s); i++ {\n\t\t\tif %s[i] > %s[best] {\n\t\t\t\tbest = i\n\t\t\t}\n\t\t}\n", sv, sv, sv)
		fmt.Fprintf(b, "\t\t%s = int64(best)\n", d)
		fmt.Fprintf(b, "\t}\n")
	case isa.OpVecDot:
		av, bv := vec(nd.Src), vec(uint8(nd.Imm))
		if nd.PM&isa.ProofVecLenMatch == 0 {
			fmt.Fprintf(b, "\tif len(%s) != len(%s) || %s == nil {\n", av, bv, av)
			e.trap("\t\t", 1, "vm.ErrVecLen")
			fmt.Fprintf(b, "\t}\n")
		}
		fmt.Fprintf(b, "\t{\n")
		fmt.Fprintf(b, "\t\tvar sum int64\n")
		fmt.Fprintf(b, "\t\tfor i := range %s {\n\t\t\tsum += %s[i] * %s[i]\n\t\t}\n", av, av, bv)
		fmt.Fprintf(b, "\t\t%s = sum\n", d)
		fmt.Fprintf(b, "\t}\n")
	case isa.OpVecSum:
		sv := vec(nd.Src)
		fmt.Fprintf(b, "\t{\n")
		fmt.Fprintf(b, "\t\tvar sum int64\n")
		fmt.Fprintf(b, "\t\tfor _, x := range %s {\n\t\t\tsum += x\n\t\t}\n", sv)
		fmt.Fprintf(b, "\t\t%s = sum\n", d)
		fmt.Fprintf(b, "\t}\n")
	case isa.OpMLInfer:
		sv := vec(nd.Src)
		if nd.PM&isa.ProofVecSet == 0 {
			fmt.Fprintf(b, "\tif %s == nil {\n", sv)
			e.trap("\t\t", 1, "vm.ErrVecUnset")
			fmt.Fprintf(b, "\t}\n")
		}
		fmt.Fprintf(b, "\t{\n")
		fmt.Fprintf(b, "\t\tret, err := env.Infer(%s, %s)\n", lit(nd.Imm), sv)
		fmt.Fprintf(b, "\t\tif err != nil {\n")
		e.trap("\t\t\t", 1, "err")
		fmt.Fprintf(b, "\t\t}\n")
		fmt.Fprintf(b, "\t\t%s = ret\n", d)
		fmt.Fprintf(b, "\t}\n")
	}
}

// joinNames renders "r0, r4, r7" style declaration lists.
func joinNames(prefix string, idxs []int) string {
	var b bytes.Buffer
	for i, n := range idxs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(prefix)
		b.WriteString(strconv.Itoa(n))
	}
	return b.String()
}

// blanks renders the "_, _, _" left side of a blank-use assignment.
func blanks(n int) string {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("_")
	}
	return b.String()
}
