package vm

import (
	"math/rand"
	"testing"

	"rmtk/internal/isa"
	"rmtk/internal/verifier"
)

// TestVerifiedProgramsNeverTrap is the soundness contract between the
// verifier and the VM: any program the verifier admits must execute to Exit
// without a runtime trap (division is excluded from the generator; helpers
// are side-effect-free here), and both engines must agree on the result.
//
// The generator emits a much richer instruction mix than the equivalence
// test: vector ops, context accesses, matches, helper calls, stack traffic
// and forward branches. Programs that fail verification are skipped (they
// are the verifier's job to reject); the test requires a healthy acceptance
// rate so the property is actually exercised.
func TestVerifiedProgramsNeverTrap(t *testing.T) {
	env := newFakeEnv()
	env.vecs[1] = []int64{5, -3, 9, 2}
	env.mats[7] = fakeMat{in: 4, out: 4, w: make([]int64, 16), b: []int64{1, 2, 3, 4}}
	for i := range env.mats[7].w {
		env.mats[7].w[i] = int64(i%3 - 1)
	}
	env.models[3] = func(x []int64) int64 { return int64(len(x)) }
	env.helpers[5] = func(args *[5]int64) (int64, error) { return args[0] + 1, nil }
	env.match = func(table, key int64) int64 { return key % 7 }
	env.hist[0] = []int64{1, 2, 3}

	vcfg := verifier.Config{
		Helpers: map[int64]verifier.HelperSpec{5: {Name: "inc", Cost: 1}},
		Models:  map[int64]verifier.ModelCost{3: {Ops: 4, Bytes: 64}},
		Mats:    map[int64]verifier.MatShape{7: {In: 4, Out: 4, Bytes: 160}},
		Tables:  map[int64]bool{2: true},
		Vecs:    map[int64]int{1: 4},
		Tails:   map[int64]*isa.Program{},
	}

	rng := rand.New(rand.NewSource(7))
	accepted, rejected := 0, 0
	for trial := 0; trial < 1500; trial++ {
		prog := richRandomProgram(rng)
		if _, err := verifier.Verify(prog, vcfg); err != nil {
			rejected++
			continue
		}
		accepted++
		ip, err := NewInterpreter(prog)
		if err != nil {
			t.Fatalf("trial %d: interpreter: %v", trial, err)
		}
		jit, err := Compile(env, prog)
		if err != nil {
			t.Fatalf("trial %d: verified program failed JIT compile: %v\n%s",
				trial, err, prog.Disassemble())
		}
		stI, stJ := NewState(), NewState()
		r1 := rng.Int63n(20)
		gotI, errI := ip.Run(env, stI, r1, rng.Int63n(20), rng.Int63n(20))
		if errI != nil {
			t.Fatalf("trial %d: verified program trapped in interpreter: %v\n%s",
				trial, errI, prog.Disassemble())
		}
		gotJ, errJ := jit.Run(env, stJ, r1, stI.Regs[2], stI.Regs[3])
		_ = gotJ
		if errJ != nil {
			t.Fatalf("trial %d: verified program trapped in JIT: %v\n%s",
				trial, errJ, prog.Disassemble())
		}
		_ = gotI
	}
	if accepted < 200 {
		t.Fatalf("generator too weak: only %d/%d programs verified", accepted, accepted+rejected)
	}
}

// richRandomProgram emits a random program over scalars r0..r7, vectors
// v0..v3 (all length 4), stack slots 0..7, context fields 0..7, helper 5,
// model 3, matrix 7 and table 2. It initializes everything up front so most
// outputs pass verification.
func richRandomProgram(rng *rand.Rand) *isa.Program {
	var ins []isa.Instr
	// Scalar prologue.
	for r := 0; r < 8; r++ {
		ins = append(ins, isa.Instr{Op: isa.OpMovImm, Dst: uint8(r), Imm: rng.Int63n(40) - 20})
	}
	// Vector prologue: all registers length 4.
	for v := 0; v < 4; v++ {
		if rng.Intn(2) == 0 {
			ins = append(ins, isa.Instr{Op: isa.OpVecZero, Dst: uint8(v), Imm: 4})
		} else {
			ins = append(ins, isa.Instr{Op: isa.OpVecLd, Dst: uint8(v), Imm: 1})
		}
	}
	// Stack prologue: slots 0..7 written.
	for s := 0; s < 8; s++ {
		ins = append(ins, isa.Instr{Op: isa.OpStStack, Src: uint8(rng.Intn(8)), Imm: int64(s)})
	}
	body := 4 + rng.Intn(28)
	start := len(ins)
	last := start + body // index of exit
	for i := 0; i < body; i++ {
		pc := start + i
		r := func() uint8 { return uint8(rng.Intn(8)) }
		v := func() uint8 { return uint8(rng.Intn(4)) }
		switch rng.Intn(16) {
		case 0:
			ins = append(ins, isa.Instr{Op: isa.OpAdd, Dst: r(), Src: r()})
		case 1:
			ins = append(ins, isa.Instr{Op: isa.OpMulImm, Dst: r(), Imm: rng.Int63n(5) - 2})
		case 2:
			ins = append(ins, isa.Instr{Op: isa.OpMin, Dst: r(), Src: r()})
		case 3:
			if pc+1 < last {
				off := int16(1 + rng.Intn(last-pc-1))
				ops := []isa.Opcode{isa.OpJEq, isa.OpJGtImm, isa.OpJLt, isa.OpJNeImm}
				ins = append(ins, isa.Instr{Op: ops[rng.Intn(len(ops))], Dst: r(), Src: r(), Imm: rng.Int63n(10) - 5, Off: off})
			} else {
				ins = append(ins, isa.Instr{Op: isa.OpNop})
			}
		case 4:
			ins = append(ins, isa.Instr{Op: isa.OpLdStack, Dst: r(), Imm: int64(rng.Intn(8))})
		case 5:
			ins = append(ins, isa.Instr{Op: isa.OpStStack, Src: r(), Imm: int64(rng.Intn(8))})
		case 6:
			ins = append(ins, isa.Instr{Op: isa.OpLdCtxt, Dst: r(), Src: r(), Imm: int64(rng.Intn(8))})
		case 7:
			ins = append(ins, isa.Instr{Op: isa.OpStCtxt, Dst: r(), Imm: int64(rng.Intn(8)), Src: r()})
		case 8:
			ins = append(ins, isa.Instr{Op: isa.OpHistPush, Dst: r(), Src: r()})
		case 9:
			ins = append(ins, isa.Instr{Op: isa.OpMatchCtxt, Dst: r(), Src: r(), Imm: 2})
		case 10:
			ins = append(ins, isa.Instr{Op: isa.OpCall, Imm: 5})
		case 11:
			ins = append(ins, isa.Instr{Op: isa.OpVecAdd, Dst: v(), Src: v()})
		case 12:
			ins = append(ins, isa.Instr{Op: isa.OpMatMul, Dst: v(), Src: v(), Imm: 7})
		case 13:
			ins = append(ins, isa.Instr{Op: isa.OpScalarVal, Dst: r(), Src: v(), Imm: int64(rng.Intn(4))})
		case 14:
			switch rng.Intn(4) {
			case 0:
				ins = append(ins, isa.Instr{Op: isa.OpVecRelu, Dst: v()})
			case 1:
				ins = append(ins, isa.Instr{Op: isa.OpVecClamp, Dst: v(), Imm: 1000})
			case 2:
				ins = append(ins, isa.Instr{Op: isa.OpVecPush, Dst: v(), Src: r()})
			default:
				ins = append(ins, isa.Instr{Op: isa.OpVecQuant, Dst: v(), Imm: isa.PackQuant(3, 2)})
			}
		default:
			ins = append(ins, isa.Instr{Op: isa.OpMLInfer, Dst: r(), Src: v(), Imm: 3})
		}
	}
	ins = append(ins, isa.Instr{Op: isa.OpExit})
	return &isa.Program{
		Name:    "sound",
		Insns:   ins,
		Helpers: []int64{5},
		Models:  []int64{3},
		Mats:    []int64{7},
		Tables:  []int64{2},
		Vecs:    []int64{1},
	}
}

// TestOptimizerPreservesSemantics: for random verified programs, the
// admitted form (proofs and the verifier's facts attached, so the JIT folds
// decided branches and drops dead code) must compute on the JIT the same
// R0, register file and steps as the original program on the interpreter.
// Crossing the engines catches folding and engine divergence at once.
func TestOptimizerPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	checked, folded := 0, 0
	for trial := 0; trial < 1200; trial++ {
		prog := richRandomProgram(rng)
		if _, err := verifier.Verify(prog, soundCfg()); err != nil {
			continue
		}
		adm := admitted(t, prog, soundCfg())
		ip, err := NewInterpreter(prog)
		if err != nil {
			t.Fatal(err)
		}
		envA, envB := soundEnv(), soundEnv()
		jit, err := Compile(envB, adm)
		if err != nil {
			t.Fatal(err)
		}
		stA, stB := NewState(), NewState()
		r1, r2, r3 := rng.Int63n(20), rng.Int63n(20), rng.Int63n(20)
		gotA, errA := ip.Run(envA, stA, r1, r2, r3)
		gotB, errB := jit.Run(envB, stB, r1, r2, r3)
		if errA != nil || errB != nil {
			t.Fatalf("trial %d: errA=%v errB=%v", trial, errA, errB)
		}
		if gotA != gotB || stA.Regs != stB.Regs || stA.Steps() != stB.Steps() {
			t.Fatalf("trial %d: original (%d, %d steps) admitted (%d, %d steps)\n%s",
				trial, gotA, stA.Steps(), gotB, stB.Steps(), prog.Disassemble())
		}
		checked++
		for _, d := range adm.Facts.Branches {
			if d != isa.BranchBoth {
				folded++
				break
			}
		}
	}
	if checked < 150 || folded == 0 {
		t.Fatalf("only %d programs checked, %d of them with a decided branch", checked, folded)
	}
}

// TestOptimizerNeverSlower: the facts only ever remove work. For random
// verified programs, the admitted form compiles to no more JIT nodes than
// the same program without facts, and runs in the same steps: a folded
// branch still charges its one step.
func TestOptimizerNeverSlower(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	checked, shrunk := 0, 0
	for trial := 0; trial < 400; trial++ {
		prog := richRandomProgram(rng)
		if _, err := verifier.Verify(prog, soundCfg()); err != nil {
			continue
		}
		adm := admitted(t, prog, soundCfg())
		bare := adm.Clone()
		bare.Facts = nil
		envA, envB := soundEnv(), soundEnv()
		jitA, err := Compile(envA, bare)
		if err != nil {
			t.Fatal(err)
		}
		jitB, err := Compile(envB, adm)
		if err != nil {
			t.Fatal(err)
		}
		stA, stB := NewState(), NewState()
		r1 := rng.Int63n(20)
		_, errA := jitA.Run(envA, stA, r1, 0, 0)
		_, errB := jitB.Run(envB, stB, r1, 0, 0)
		if errA != nil || errB != nil {
			t.Fatalf("trial %d: errA=%v errB=%v", trial, errA, errB)
		}
		if len(jitB.code) > len(jitA.code) || stB.Steps() != stA.Steps() {
			t.Fatalf("trial %d: with facts %d nodes, %d steps; without %d nodes, %d steps\n%s",
				trial, len(jitB.code), stB.Steps(), len(jitA.code), stA.Steps(), prog.Disassemble())
		}
		checked++
		if len(jitB.code) < len(jitA.code) {
			shrunk++
		}
	}
	if checked < 50 || shrunk == 0 {
		t.Fatalf("only %d programs checked, %d of them shrunk by the facts", checked, shrunk)
	}
}
