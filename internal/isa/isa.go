// Package isa defines the RMT bytecode instruction set executed by the
// in-kernel virtual machine (internal/vm).
//
// The instruction set follows §3.1-3.2 of "Toward Reconfigurable Kernel
// Datapaths with Learned Optimizations" (HotOS '21): scalar ALU and control
// flow for match/action logic, execution-context accessors (RMT_LD_CTXT,
// RMT_ST_CTXT, RMT_MATCH_CTXT), constrained helper calls, tail calls for
// model cascading, and a dedicated ML vector ISA (RMT_VECTOR_LD, RMT_MAT_MUL,
// RMT_SCALAR_VAL, ...) patterned after neural-processor ISAs.
//
// Instructions are fixed width (16 bytes encoded) so that the interpreter can
// decode directly from the byte stream and the verifier can compute precise
// control-flow graphs.
package isa

import (
	"encoding/binary"
	"fmt"
)

// Machine shape constants. These are part of the verified contract between
// programs, the verifier and the VM.
const (
	// NumRegs is the number of scalar registers R0..R15. R0 holds the
	// program's return value at Exit. R1..R3 are initialized by the kernel
	// at hook dispatch (R1 = match key, R2/R3 = hook-specific arguments);
	// all other registers start uninitialized and must be written before
	// they are read (enforced by the verifier).
	NumRegs = 16
	// NumVRegs is the number of vector registers V0..V7 used by the ML ISA.
	NumVRegs = 8
	// StackWords is the size of the per-invocation scratch stack in 64-bit
	// words.
	StackWords = 64
	// MaxVecLen bounds the length of any vector register.
	MaxVecLen = 256
	// MaxProgInsns bounds program length.
	MaxProgInsns = 4096
	// MaxTailCalls bounds the depth of TAIL_CALL chains at runtime.
	MaxTailCalls = 8
	// InstrBytes is the encoded size of one instruction.
	InstrBytes = 16
)

// Opcode identifies an RMT bytecode instruction.
type Opcode uint8

// Scalar, control-flow, context, call and vector opcodes. The mnemonic for
// each opcode is given by its String method and accepted by the assembler.
const (
	OpNop Opcode = iota

	// Scalar moves and ALU. Dst/Src name scalar registers.
	OpMov    // R[Dst] = R[Src]
	OpMovImm // R[Dst] = Imm
	OpAdd    // R[Dst] += R[Src]
	OpAddImm // R[Dst] += Imm
	OpSub    // R[Dst] -= R[Src]
	OpMul    // R[Dst] *= R[Src]
	OpMulImm // R[Dst] *= Imm
	OpDiv    // R[Dst] /= R[Src]; traps if R[Src] == 0
	OpMod    // R[Dst] %= R[Src]; traps if R[Src] == 0
	OpAnd    // R[Dst] &= R[Src]
	OpOr     // R[Dst] |= R[Src]
	OpXor    // R[Dst] ^= R[Src]
	OpShl    // R[Dst] <<= uint(R[Src]) & 63
	OpShr    // R[Dst] >>= uint(R[Src]) & 63 (arithmetic)
	OpNeg    // R[Dst] = -R[Dst]
	OpAbs    // R[Dst] = |R[Dst]|
	OpMin    // R[Dst] = min(R[Dst], R[Src])
	OpMax    // R[Dst] = max(R[Dst], R[Src])

	// Control flow. Off is relative to the *next* instruction, so Off==0
	// falls through. The verifier rejects back edges (Off making the target
	// precede or equal the current pc), guaranteeing bounded execution.
	OpJmp    // pc += Off
	OpJEq    // if R[Dst] == R[Src] { pc += Off }
	OpJNe    // if R[Dst] != R[Src] { pc += Off }
	OpJGt    // if R[Dst] >  R[Src] { pc += Off }
	OpJGe    // if R[Dst] >= R[Src] { pc += Off }
	OpJLt    // if R[Dst] <  R[Src] { pc += Off }
	OpJLe    // if R[Dst] <= R[Src] { pc += Off }
	OpJEqImm // if R[Dst] == Imm { pc += Off }
	OpJNeImm // if R[Dst] != Imm { pc += Off }
	OpJGtImm // if R[Dst] >  Imm { pc += Off }
	OpJGeImm // if R[Dst] >= Imm { pc += Off }
	OpJLtImm // if R[Dst] <  Imm { pc += Off }
	OpJLeImm // if R[Dst] <= Imm { pc += Off }

	// Scratch stack.
	OpLdStack // R[Dst] = stack[Imm]
	OpStStack // stack[Imm] = R[Src]

	// Execution context (RMT_CTXT). Keys are opaque int64 match keys (PID,
	// inode, cgroup id, ...). Field indices are small integers naming a
	// monitored quantity.
	OpLdCtxt    // R[Dst] = ctx[R[Src]].field[Imm]           (RMT_LD_CTXT)
	OpStCtxt    // ctx[R[Dst]].field[Imm] = R[Src]           (RMT_ST_CTXT)
	OpMatchCtxt // R[Dst] = table[Imm].Match(key=R[Src])     (RMT_MATCH_CTXT)
	OpHistPush  // ctx[R[Dst]].history.push(R[Src])

	// Calls.
	OpCall     // R0 = helper[Imm](R1..R5); helpers are a constrained whitelist
	OpTailCall // transfer to program Imm; never returns here (model cascade)
	OpExit     // return R0 and leave the RMT pipeline (EXIT)

	// ML vector ISA.
	OpVecZero   // V[Dst] = zero vector of length Imm
	OpVecLd     // V[Dst] = env vector pool[Imm]             (RMT_VECTOR_LD)
	OpVecSt     // env vector pool[Imm] = V[Src]
	OpVecLdHist // V[Dst] = last Imm history values of ctx[R[Src]]
	OpVecSet    // V[Dst][Imm] = R[Src]
	OpVecPush   // V[Dst] shifts left one slot; V[Dst][len-1] = R[Src]
	OpScalarVal // R[Dst] = V[Src][Imm]                      (RMT_SCALAR_VAL)
	OpMatMul    // V[Dst] = W[Imm]·V[Src] + b[Imm]           (RMT_MAT_MUL)
	OpVecAdd    // V[Dst] += V[Src] (element-wise; lengths must match)
	OpVecMul    // V[Dst] *= V[Src] (element-wise)
	OpVecRelu   // V[Dst] = max(V[Dst], 0) element-wise
	OpVecQuant  // V[Dst] = (V[Dst] * mul) >> shift, Imm packs mul<<8|shift
	OpVecClamp  // V[Dst] = clamp(V[Dst], -Imm, +Imm) element-wise
	OpVecArgMax // R[Dst] = index of maximum element of V[Src]
	OpVecDot    // R[Dst] = Σ V[Dst][i]*V[Src][i] ... see note below
	OpVecSum    // R[Dst] = Σ V[Src][i]
	OpMLInfer   // R[Dst] = model[Imm].Predict(V[Src])  (coarse-grained model call)

	opMax // sentinel; must remain last
)

// NumOpcodes is the count of defined opcodes.
const NumOpcodes = int(opMax)

var opNames = [...]string{
	OpNop: "nop",

	OpMov:    "mov",
	OpMovImm: "movimm",
	OpAdd:    "add",
	OpAddImm: "addimm",
	OpSub:    "sub",
	OpMul:    "mul",
	OpMulImm: "mulimm",
	OpDiv:    "div",
	OpMod:    "mod",
	OpAnd:    "and",
	OpOr:     "or",
	OpXor:    "xor",
	OpShl:    "shl",
	OpShr:    "shr",
	OpNeg:    "neg",
	OpAbs:    "abs",
	OpMin:    "min",
	OpMax:    "max",

	OpJmp:    "jmp",
	OpJEq:    "jeq",
	OpJNe:    "jne",
	OpJGt:    "jgt",
	OpJGe:    "jge",
	OpJLt:    "jlt",
	OpJLe:    "jle",
	OpJEqImm: "jeqi",
	OpJNeImm: "jnei",
	OpJGtImm: "jgti",
	OpJGeImm: "jgei",
	OpJLtImm: "jlti",
	OpJLeImm: "jlei",

	OpLdStack: "ldstack",
	OpStStack: "ststack",

	OpLdCtxt:    "ldctxt",
	OpStCtxt:    "stctxt",
	OpMatchCtxt: "matchctxt",
	OpHistPush:  "histpush",

	OpCall:     "call",
	OpTailCall: "tailcall",
	OpExit:     "exit",

	OpVecZero:   "veczero",
	OpVecLd:     "vecld",
	OpVecSt:     "vecst",
	OpVecLdHist: "vecldhist",
	OpVecSet:    "vecset",
	OpVecPush:   "vecpush",
	OpScalarVal: "scalarval",
	OpMatMul:    "matmul",
	OpVecAdd:    "vecadd",
	OpVecMul:    "vecmul",
	OpVecRelu:   "vecrelu",
	OpVecQuant:  "vecquant",
	OpVecClamp:  "vecclamp",
	OpVecArgMax: "vecargmax",
	OpVecDot:    "vecdot",
	OpVecSum:    "vecsum",
	OpMLInfer:   "mlinfer",
}

// String returns the assembler mnemonic for the opcode.
func (op Opcode) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Valid reports whether op is a defined opcode.
func (op Opcode) Valid() bool { return op < opMax }

// IsJump reports whether the opcode transfers control via Off.
func (op Opcode) IsJump() bool { return op >= OpJmp && op <= OpJLeImm }

// IsCondJump reports whether the opcode is a conditional jump (may fall
// through as well as take the branch).
func (op Opcode) IsCondJump() bool { return op > OpJmp && op <= OpJLeImm }

// IsTerminal reports whether control never falls through to the next
// instruction (unconditional transfers).
func (op Opcode) IsTerminal() bool { return op == OpJmp || op == OpExit || op == OpTailCall }

// Instr is a single decoded RMT instruction.
type Instr struct {
	Op  Opcode
	Dst uint8 // destination register (scalar or vector depending on Op)
	Src uint8 // source register (scalar or vector depending on Op)
	Off int16 // jump offset relative to the next instruction
	Imm int64 // immediate operand / resource id / field index
}

// String renders the instruction in assembler syntax.
func (in Instr) String() string {
	switch in.Op {
	case OpNop, OpExit:
		return in.Op.String()
	case OpMov, OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpXor,
		OpShl, OpShr, OpMin, OpMax:
		return fmt.Sprintf("%s r%d, r%d", in.Op, in.Dst, in.Src)
	case OpMovImm, OpAddImm, OpMulImm:
		return fmt.Sprintf("%s r%d, %d", in.Op, in.Dst, in.Imm)
	case OpNeg, OpAbs:
		return fmt.Sprintf("%s r%d", in.Op, in.Dst)
	case OpJmp:
		return fmt.Sprintf("%s %+d", in.Op, in.Off)
	case OpJEq, OpJNe, OpJGt, OpJGe, OpJLt, OpJLe:
		return fmt.Sprintf("%s r%d, r%d, %+d", in.Op, in.Dst, in.Src, in.Off)
	case OpJEqImm, OpJNeImm, OpJGtImm, OpJGeImm, OpJLtImm, OpJLeImm:
		return fmt.Sprintf("%s r%d, %d, %+d", in.Op, in.Dst, in.Imm, in.Off)
	case OpLdStack:
		return fmt.Sprintf("%s r%d, [%d]", in.Op, in.Dst, in.Imm)
	case OpStStack:
		return fmt.Sprintf("%s [%d], r%d", in.Op, in.Imm, in.Src)
	case OpLdCtxt:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Dst, in.Src, in.Imm)
	case OpStCtxt:
		return fmt.Sprintf("%s r%d, %d, r%d", in.Op, in.Dst, in.Imm, in.Src)
	case OpMatchCtxt:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Dst, in.Src, in.Imm)
	case OpHistPush:
		return fmt.Sprintf("%s r%d, r%d", in.Op, in.Dst, in.Src)
	case OpCall, OpTailCall:
		return fmt.Sprintf("%s %d", in.Op, in.Imm)
	case OpVecZero, OpVecLd:
		return fmt.Sprintf("%s v%d, %d", in.Op, in.Dst, in.Imm)
	case OpVecSt:
		return fmt.Sprintf("%s %d, v%d", in.Op, in.Imm, in.Src)
	case OpVecLdHist:
		return fmt.Sprintf("%s v%d, r%d, %d", in.Op, in.Dst, in.Src, in.Imm)
	case OpVecSet:
		return fmt.Sprintf("%s v%d, %d, r%d", in.Op, in.Dst, in.Imm, in.Src)
	case OpVecPush:
		return fmt.Sprintf("%s v%d, r%d", in.Op, in.Dst, in.Src)
	case OpScalarVal:
		return fmt.Sprintf("%s r%d, v%d, %d", in.Op, in.Dst, in.Src, in.Imm)
	case OpMatMul:
		return fmt.Sprintf("%s v%d, v%d, %d", in.Op, in.Dst, in.Src, in.Imm)
	case OpVecAdd, OpVecMul:
		return fmt.Sprintf("%s v%d, v%d", in.Op, in.Dst, in.Src)
	case OpVecRelu:
		return fmt.Sprintf("%s v%d", in.Op, in.Dst)
	case OpVecClamp:
		return fmt.Sprintf("%s v%d, %d", in.Op, in.Dst, in.Imm)
	case OpVecQuant:
		return fmt.Sprintf("%s v%d, %d, %d", in.Op, in.Dst, in.Imm>>8, in.Imm&0xff)
	case OpVecArgMax, OpVecSum:
		return fmt.Sprintf("%s r%d, v%d", in.Op, in.Dst, in.Src)
	case OpVecDot:
		return fmt.Sprintf("%s r%d, v%d, v%d", in.Op, in.Dst, in.Src, uint8(in.Imm))
	case OpMLInfer:
		return fmt.Sprintf("%s r%d, v%d, %d", in.Op, in.Dst, in.Src, in.Imm)
	default:
		return fmt.Sprintf("%s r%d, r%d, %+d, %d", in.Op, in.Dst, in.Src, in.Off, in.Imm)
	}
}

// PackQuant packs a requantization multiplier and right-shift into the Imm
// operand of OpVecQuant. mul must fit in 48 bits and shift in 8.
func PackQuant(mul int64, shift uint8) int64 {
	return mul<<8 | int64(shift)
}

// UnpackQuant is the inverse of PackQuant.
func UnpackQuant(imm int64) (mul int64, shift uint8) {
	return imm >> 8, uint8(imm & 0xff)
}

// Encode appends the 16-byte wire encoding of the instruction to dst.
//
// Layout (little endian):
//
//	byte 0      opcode
//	byte 1      dst register
//	byte 2      src register
//	byte 3      reserved (0)
//	bytes 4-5   off (int16)
//	bytes 6-7   reserved (0)
//	bytes 8-15  imm (int64)
func (in Instr) Encode(dst []byte) []byte {
	var buf [InstrBytes]byte
	buf[0] = byte(in.Op)
	buf[1] = in.Dst
	buf[2] = in.Src
	binary.LittleEndian.PutUint16(buf[4:], uint16(in.Off))
	binary.LittleEndian.PutUint64(buf[8:], uint64(in.Imm))
	return append(dst, buf[:]...)
}

// DecodeInstr decodes one instruction from b, which must hold at least
// InstrBytes bytes.
func DecodeInstr(b []byte) (Instr, error) {
	if len(b) < InstrBytes {
		return Instr{}, fmt.Errorf("isa: short instruction: %d bytes", len(b))
	}
	in := Instr{
		Op:  Opcode(b[0]),
		Dst: b[1],
		Src: b[2],
		Off: int16(binary.LittleEndian.Uint16(b[4:])),
		Imm: int64(binary.LittleEndian.Uint64(b[8:])),
	}
	if !in.Op.Valid() {
		return Instr{}, fmt.Errorf("isa: invalid opcode %d", b[0])
	}
	return in, nil
}

// EncodeProgram encodes a full instruction slice to its wire form.
func EncodeProgram(insns []Instr) []byte {
	out := make([]byte, 0, len(insns)*InstrBytes)
	for _, in := range insns {
		out = in.Encode(out)
	}
	return out
}

// DecodeProgram decodes a wire-form program into instructions.
func DecodeProgram(code []byte) ([]Instr, error) {
	if len(code)%InstrBytes != 0 {
		return nil, fmt.Errorf("isa: program length %d not a multiple of %d", len(code), InstrBytes)
	}
	n := len(code) / InstrBytes
	insns := make([]Instr, 0, n)
	for i := 0; i < n; i++ {
		in, err := DecodeInstr(code[i*InstrBytes:])
		if err != nil {
			return nil, fmt.Errorf("isa: instruction %d: %w", i, err)
		}
		insns = append(insns, in)
	}
	return insns, nil
}

// Program is a unit of admission: bytecode plus the metadata the verifier and
// kernel need to attach it to a datapath.
type Program struct {
	// Name identifies the program for diagnostics and the control plane.
	Name string
	// Hook names the kernel hook point the program attaches to, e.g.
	// "mm/swap_cluster_readahead".
	Hook string
	// Insns is the decoded instruction stream.
	Insns []Instr

	// Declared resource references. The verifier checks that every id the
	// bytecode uses appears here and exists in the kernel's registries.
	Helpers []int64 // helper ids the program may OpCall
	Models  []int64 // model ids the program may OpMLInfer
	Mats    []int64 // weight-matrix ids the program may OpMatMul
	Tables  []int64 // table ids the program may OpMatchCtxt
	Vecs    []int64 // vector-pool ids the program may OpVecLd/OpVecSt
	Tails   []int64 // program ids the program may OpTailCall

	// Admission artifacts. All are attached by the kernel after the
	// verifier accepts the program; they are never part of the wire
	// encoding, so a decoded or hand-built program carries none until it is
	// re-verified.
	//
	// Proofs holds one ProofMask per instruction recording which runtime
	// checks the verifier statically discharged; the VM engines elide
	// exactly those checks. HelperContracts holds the argument-range
	// contracts of every contracted helper the program calls; call sites
	// whose ProofHelperArgs bit is unset enforce them at runtime.
	Proofs          []ProofMask
	HelperContracts map[int64][]Interval
	// StaticSteps is the verifier's worst-case step count for this program
	// (Report.MaxSteps). When set alongside Proofs, the engines reserve the
	// whole bound against the step budget up front and drop the per-step
	// budget and bounds checks: the verified CFG is a forward-only DAG, so
	// execution is structurally bounded by this figure. Executed steps are
	// still counted exactly. Zero means unknown (per-step checks stay).
	StaticSteps int64
	// Pure is the verifier's purity certificate (Report.Pure): the program
	// is a function of only the fire arguments and versioned datapath state.
	// The kernel's verdict cache memoizes fires of pure programs.
	Pure bool
	// Facts is the verifier's per-instruction fact table (Report.Facts):
	// reachability and statically decided branches. The lowering folds the
	// decided branches and drops dead instructions. Nil means none are known
	// (every branch kept). Facts are immutable once attached, so Clone
	// shares them.
	Facts *Facts
}

// Encode returns the wire form of the program's instructions.
func (p *Program) Encode() []byte { return EncodeProgram(p.Insns) }

// Clone returns a deep copy of the program.
func (p *Program) Clone() *Program {
	q := *p
	q.Insns = append([]Instr(nil), p.Insns...)
	q.Helpers = append([]int64(nil), p.Helpers...)
	q.Models = append([]int64(nil), p.Models...)
	q.Mats = append([]int64(nil), p.Mats...)
	q.Tables = append([]int64(nil), p.Tables...)
	q.Vecs = append([]int64(nil), p.Vecs...)
	q.Tails = append([]int64(nil), p.Tails...)
	q.Proofs = append([]ProofMask(nil), p.Proofs...)
	if p.HelperContracts != nil {
		q.HelperContracts = make(map[int64][]Interval, len(p.HelperContracts))
		for id, args := range p.HelperContracts {
			q.HelperContracts[id] = append([]Interval(nil), args...)
		}
	}
	return &q
}

// Disassemble renders the program as assembler text, one instruction per
// line, prefixed with the instruction index.
func (p *Program) Disassemble() string {
	out := make([]byte, 0, len(p.Insns)*24)
	for i, in := range p.Insns {
		out = append(out, fmt.Sprintf("%4d: %s\n", i, in)...)
	}
	return string(out)
}
