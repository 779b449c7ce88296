package vm

import (
	"math/rand"
	"reflect"
	"testing"

	"rmtk/internal/isa"
	"rmtk/internal/verifier"
)

// soundEnv builds a deterministic environment; each engine run in the
// soundness fuzz gets a fresh one so side effects (ctx stores, history
// pushes, vector stores) can be compared across runs.
func soundEnv() *fakeEnv {
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
	return env
}

// soundCfg mirrors soundEnv for the verifier, including an argument
// contract on helper 5 so the ProofHelperArgs machinery is exercised: call
// sites with provably in-range arguments elide the contract check, the
// rest enforce it at runtime.
func soundCfg() verifier.Config {
	ret := isa.Range(-1<<30+1, 1<<30+1)
	return verifier.Config{
		Helpers: map[int64]verifier.HelperSpec{5: {
			Name: "inc", Cost: 1,
			Args: []isa.Interval{isa.Range(-1<<30, 1<<30)},
			Ret:  &ret,
		}},
		Models: map[int64]verifier.ModelCost{3: {Ops: 4, Bytes: 64}},
		Mats:   map[int64]verifier.MatShape{7: {In: 4, Out: 4, Bytes: 160}},
		Tables: map[int64]bool{2: true},
		Vecs:   map[int64]int{1: 4},
		Tails:  map[int64]*isa.Program{},
	}
}

// proofRandomProgram is richRandomProgram plus a division epilogue that the
// interval domain can reason about: one divisor set to a nonzero constant
// (ProofDivNonZero via a point interval) and one division guarded by a
// conditional branch (ProofDivNonZero via branch narrowing).
func proofRandomProgram(rng *rand.Rand) *isa.Program {
	prog := richRandomProgram(rng)
	n := len(prog.Insns) // last instruction is Exit
	epi := []isa.Instr{
		{Op: isa.OpMovImm, Dst: 6, Imm: 1 + rng.Int63n(7)},
		{Op: isa.OpDiv, Dst: uint8(rng.Intn(6)), Src: 6},
		{Op: isa.OpJGtImm, Dst: 5, Imm: 0, Off: 1},
		{Op: isa.OpJmp, Off: 1},
		{Op: isa.OpDiv, Dst: uint8(rng.Intn(6)), Src: 5},
		{Op: isa.OpMod, Dst: uint8(rng.Intn(6)), Src: 6},
	}
	ins := make([]isa.Instr, 0, n+len(epi))
	ins = append(ins, prog.Insns[:n-1]...)
	ins = append(ins, epi...)
	ins = append(ins, prog.Insns[n-1])
	prog.Insns = ins
	return prog
}

// FuzzVerifierSoundness is the differential soundness check for check
// elision and lowering: a verified program must behave identically on the
// fully checked interpreter (no proofs attached — the reference) and on every
// production path: the interpreter eliding the statically proven checks, and
// the JIT's closures over the lowered program — checked, elided, and elided
// with the verifier's facts (branch folding and dead-code removal on top of
// the fusion every JIT arm already has; this is the program as admission
// compiles it, and the lowering rmtkgen emits as Go). Any divergence —
// result, register file, error presence, or environment side effects — means
// the verifier granted a proof for a check that could actually fire, or the
// lowering miscompiled the program.
func FuzzVerifierSoundness(f *testing.F) {
	for seed := int64(0); seed < 24; seed++ {
		f.Add(seed, int64(3), int64(5), int64(7))
	}
	f.Fuzz(func(t *testing.T, seed, r1, r2, r3 int64) {
		rng := rand.New(rand.NewSource(seed))
		prog := proofRandomProgram(rng)
		rep, err := verifier.Verify(prog, soundCfg())
		if err != nil {
			t.Skip() // rejection is the verifier's prerogative, not a soundness question
		}

		// Checked baseline: contracts enforced at every call site, no
		// proofs. Elided: identical program plus the verifier's proofs.
		checked := prog.Clone()
		checked.HelperContracts = rep.HelperContracts
		elided := prog.Clone()
		elided.Proofs = rep.Proofs
		elided.HelperContracts = rep.HelperContracts
		elided.StaticSteps = rep.MaxSteps

		type outcome struct {
			name   string
			r0     int64
			regs   [isa.NumRegs]int64
			steps  int64
			failed bool
			env    *fakeEnv
		}
		run := func(name string, p *isa.Program, build func(Env) (Engine, error)) outcome {
			env := soundEnv()
			eng, err := build(env)
			if err != nil {
				t.Fatalf("%s: build: %v\n%s", name, err, p.Disassemble())
			}
			st := NewState()
			r0, rerr := eng.Run(env, st, r1, r2, r3)
			return outcome{name: name, r0: r0, regs: st.Regs, steps: st.Steps(), failed: rerr != nil, env: env}
		}
		interp := func(p *isa.Program) func(Env) (Engine, error) {
			return func(Env) (Engine, error) { return NewInterpreter(p) }
		}
		jit := func(p *isa.Program) func(Env) (Engine, error) {
			return func(env Env) (Engine, error) { return Compile(env, p) }
		}
		// As admitted: the proofs plus the verifier's interval facts.
		folded := elided.Clone()
		folded.Facts = rep.Facts

		want := run("interp/checked", checked, interp(checked))
		for _, o := range []outcome{
			run("interp/elided", elided, interp(elided)),
			run("jit/checked", checked, jit(checked)),
			run("jit/elided", elided, jit(elided)),
			run("jit/elided+facts", folded, jit(folded)),
		} {
			if o.failed != want.failed {
				t.Fatalf("%s failed=%v but %s failed=%v\n%s\nproofs: %v",
					o.name, o.failed, want.name, want.failed, prog.Disassemble(), rep.Proofs)
			}
			// Executed steps are observable (SLOs, the sentinel's differential
			// checker), trapping runs included: fused nodes must charge what
			// the instructions they replaced would have.
			if o.steps != want.steps {
				t.Fatalf("%s steps=%d but %s steps=%d (failed=%v)\n%s\nproofs: %v",
					o.name, o.steps, want.name, want.steps, o.failed, prog.Disassemble(), rep.Proofs)
			}
			if o.failed {
				continue
			}
			if o.r0 != want.r0 || o.regs != want.regs {
				t.Fatalf("%s r0=%d regs=%v\n%s r0=%d regs=%v\n%s\nproofs: %v",
					o.name, o.r0, o.regs, want.name, want.r0, want.regs,
					prog.Disassemble(), rep.Proofs)
			}
			if !reflect.DeepEqual(o.env.ctx, want.env.ctx) ||
				!reflect.DeepEqual(o.env.hist, want.env.hist) ||
				!reflect.DeepEqual(o.env.vecs, want.env.vecs) {
				t.Fatalf("%s and %s diverge in environment side effects\n%s",
					o.name, want.name, prog.Disassemble())
			}
		}
	})
}

// TestTailCacheTracksProgramSwap is the regression test for the tail-cache
// staleness bug: the interpreter memoizes the encoded bytes of tail-call
// targets, and before the fix kept serving the first encoding forever even
// after the control plane swapped in a new program under the same id.
func TestTailCacheTracksProgramSwap(t *testing.T) {
	env := newFakeEnv()
	env.tails[9] = &isa.Program{Name: "v1", Insns: isa.MustAssemble("movimm r0, 100\nexit")}
	ip, err := NewInterpreter(&isa.Program{Name: "main", Insns: isa.MustAssemble("tailcall 9")})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ip.Run(env, NewState(), 0, 0, 0)
	if err != nil || got != 100 {
		t.Fatalf("first fire = %d, %v; want 100", got, err)
	}
	// Control-plane swap: same id, new program. The cached encoding of v1
	// must be invalidated by pointer identity, not served stale.
	env.tails[9] = &isa.Program{Name: "v2", Insns: isa.MustAssemble("movimm r0, 200\nexit")}
	got, err = ip.Run(env, NewState(), 0, 0, 0)
	if err != nil || got != 200 {
		t.Fatalf("fire after swap = %d, %v; want 200 (stale tail cache)", got, err)
	}
	// And the cache still works: a third fire of the same target must hit
	// the refreshed entry.
	got, err = ip.Run(env, NewState(), 0, 0, 0)
	if err != nil || got != 200 {
		t.Fatalf("third fire = %d, %v; want 200", got, err)
	}
}

// TestElidedProofsCarriedAcrossTailCalls: each tail segment's own proofs
// and contracts must be swapped in when the chain transfers — the caller's
// proof mask must never be applied to the callee's instructions.
func TestElidedProofsCarriedAcrossTailCalls(t *testing.T) {
	cfg := soundCfg()
	callee := &isa.Program{
		Name:  "callee",
		Insns: isa.MustAssemble("movimm r4, 5\ndiv r1, r4\nmov r0, r1\nexit"),
	}
	crep, err := verifier.Verify(callee, cfg)
	if err != nil {
		t.Fatal(err)
	}
	callee.Proofs = crep.Proofs

	caller := &isa.Program{
		Name:  "caller",
		Insns: isa.MustAssemble("tailcall 4"),
		Tails: []int64{4},
	}
	cfg.Tails[4] = callee
	rrep, err := verifier.Verify(caller, cfg)
	if err != nil {
		t.Fatal(err)
	}
	caller.Proofs = rrep.Proofs

	env := soundEnv()
	env.tails[4] = callee
	ip, err := NewInterpreter(caller)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ip.Run(env, NewState(), 35, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("tail chain = %d, want 7", got)
	}
	if crep.ElidedChecks == 0 {
		t.Fatal("callee division by a constant should have been proven safe")
	}
}
