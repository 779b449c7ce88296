package aot_test

import (
	"reflect"
	"testing"

	"rmtk/internal/aot"
	"rmtk/internal/core"
	"rmtk/internal/experiments"
	"rmtk/internal/isa"
	"rmtk/internal/report"
	"rmtk/internal/vm"
)

func hashProg() *isa.Program {
	return &isa.Program{
		Name:  "hash-fixture",
		Insns: isa.MustAssemble("movimm r0, 7\nexit"),
	}
}

func TestHashCoversAdmissionArtifacts(t *testing.T) {
	base := aot.Hash(hashProg())

	withProofs := hashProg()
	withProofs.Proofs = []isa.ProofMask{isa.ProofDivNonZero, 0}
	if aot.Hash(withProofs) == base {
		t.Error("proof masks not covered by the hash")
	}

	withSteps := hashProg()
	withSteps.StaticSteps = 2
	if aot.Hash(withSteps) == base {
		t.Error("static step certificate not covered by the hash")
	}

	withPure := hashProg()
	withPure.Pure = true
	if aot.Hash(withPure) == base {
		t.Error("purity bit not covered by the hash")
	}

	withContract := hashProg()
	withContract.HelperContracts = map[int64][]isa.Interval{5: {isa.Range(0, 10)}}
	if aot.Hash(withContract) == base {
		t.Error("helper contracts not covered by the hash")
	}
}

func TestHashIgnoresProgramName(t *testing.T) {
	a, b := hashProg(), hashProg()
	b.Name = "different-name"
	if aot.Hash(a) != aot.Hash(b) {
		t.Error("structurally identical programs under different names must share a hash (per-PID dedup)")
	}
}

func TestRegisterLookup(t *testing.T) {
	called := false
	aot.Register("test-hash-not-a-real-program", "fixture", func(_ vm.Env, _ *aot.Scratch, r1, _, _ int64) (int64, int64, error) {
		called = true
		return r1 * 2, 1, nil
	})
	fn, ok := aot.Lookup("test-hash-not-a-real-program")
	if !ok {
		t.Fatal("registered hash not found")
	}
	v, steps, err := fn(nil, &aot.Scratch{}, 21, 0, 0)
	if err != nil || v != 42 || steps != 1 || !called {
		t.Fatalf("fn = (%d, %d, %v), called=%v; want (42, 1, nil), true", v, steps, err, called)
	}
	if _, ok := aot.Lookup("no-such-hash"); ok {
		t.Error("lookup of unknown hash succeeded")
	}
	if name := aot.Programs()["test-hash-not-a-real-program"]; name != "fixture" {
		t.Errorf("Programs() name = %q, want fixture", name)
	}
}

// TestGeneratedRegistryMatchesLiveCorpus is the in-tree twin of the
// codegen-drift CI gate: every program the standard corpus builders admit
// today must hit the committed generated registry by content hash. A miss
// means gen_datapaths.go is stale — regenerate with `go run ./cmd/rmtkgen`.
func TestGeneratedRegistryMatchesLiveCorpus(t *testing.T) {
	k, _, err := report.DatapathBuilder(core.ModeJIT)
	if err != nil {
		t.Fatal(err)
	}
	hk, err := experiments.NewHotPathKernel(core.ModeJIT, false)
	if err != nil {
		t.Fatal(err)
	}
	entries := append(k.VerifierCorpus(), hk.VerifierCorpus()...)
	if len(entries) == 0 {
		t.Fatal("empty corpus")
	}
	for _, e := range entries {
		if _, ok := aot.Lookup(aot.Hash(e.Prog)); !ok {
			t.Errorf("program %q (hash %s) missing from the generated registry — rerun `go run ./cmd/rmtkgen`",
				e.Prog.Name, aot.Hash(e.Prog)[:12])
		}
	}
	if got := len(aot.Programs()); got == 0 {
		t.Error("generated registry is empty")
	}
}

// TestAOTKernelDifferential runs every corpus program under ModeAOT and
// ModeJIT kernels with a grid of arguments and demands identical verdicts
// and emissions — the end-to-end counterpart of the engine-level fuzz
// differential, through the real kernel env and registries.
func TestAOTKernelDifferential(t *testing.T) {
	build := func(mode core.ExecMode) *core.Kernel {
		k, _, err := report.DatapathBuilder(mode)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	kAOT, kJIT := build(core.ModeAOT), build(core.ModeJIT)
	args := [][3]int64{
		{0, 0, 0}, {1, 100, 0}, {7, 3, 9}, {-5, 2, 1}, {1 << 20, 255, -1},
	}
	for _, e := range kJIT.VerifierCorpus() {
		name := e.Prog.Name
		for _, a := range args {
			vJ, eJ, errJ := kJIT.RunProgramByName(name, a[0], a[1], a[2])
			vA, eA, errA := kAOT.RunProgramByName(name, a[0], a[1], a[2])
			if (errJ != nil) != (errA != nil) {
				t.Fatalf("%s%v: jit err=%v, aot err=%v", name, a, errJ, errA)
			}
			if errJ != nil {
				continue
			}
			if vJ != vA {
				t.Errorf("%s%v: jit verdict %d, aot verdict %d", name, a, vJ, vA)
			}
			if !reflect.DeepEqual(eJ, eA) {
				t.Errorf("%s%v: jit emissions %v, aot emissions %v", name, a, eJ, eA)
			}
		}
	}
}

// TestAOTHotPathFireParity fires the hot-path fixture through the full
// dispatch pipeline under all three modes and compares complete
// FireResults — verdict, steps (superinstruction charging must match the
// bytecode engines), match counts.
func TestAOTHotPathFireParity(t *testing.T) {
	build := func(mode core.ExecMode) *core.Kernel {
		k, err := experiments.NewHotPathKernel(mode, false)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	kAOT, kJIT, kInt := build(core.ModeAOT), build(core.ModeJIT), build(core.ModeInterp)
	for key := int64(0); key < experiments.HotPathKeys; key += 7 {
		rA := kAOT.Fire(experiments.HotPathHook, key, key&7, 3)
		rJ := kJIT.Fire(experiments.HotPathHook, key, key&7, 3)
		rI := kInt.Fire(experiments.HotPathHook, key, key&7, 3)
		if rA.Verdict != rJ.Verdict || rA.Verdict != rI.Verdict {
			t.Fatalf("key %d: verdicts aot=%d jit=%d interp=%d", key, rA.Verdict, rJ.Verdict, rI.Verdict)
		}
		if rA.Steps != rJ.Steps || rA.Steps != rI.Steps {
			t.Fatalf("key %d: steps aot=%d jit=%d interp=%d", key, rA.Steps, rJ.Steps, rI.Steps)
		}
		if rA.Matched != rJ.Matched || rA.Trapped != rJ.Trapped {
			t.Fatalf("key %d: results diverge: aot=%+v jit=%+v", key, rA, rJ)
		}
	}
}

// TestJITHotPathFullySampled runs the hot-path fixture on the JIT with the
// sentinel checking every fire against the proof-stripped interpreter: the
// fixture's 8 instructions run as 3 lowered nodes (vecinit, matvecsum, exit),
// so any slip in fused semantics or in fused step charging is a divergence,
// and every fire must still report the 8 original steps.
func TestJITHotPathFullySampled(t *testing.T) {
	k, err := experiments.NewHotPathKernel(core.ModeJIT, false)
	if err != nil {
		t.Fatal(err)
	}
	sen := k.AttachSentinel(core.SentinelConfig{SampleEvery: 1})
	for i := int64(0); i < 1000; i++ {
		key := i % experiments.HotPathKeys
		if res := k.Fire(experiments.HotPathHook, key, key&7, 3); res.Trapped || res.Steps != 8 {
			t.Fatalf("fire %d: %+v, want 8 steps and no trap", i, res)
		}
	}
	if c := sen.Counts(); c.Sampled != 1000 || c.Divergences != 0 || c.Demotions != 0 {
		t.Fatalf("sentinel counts = %+v, want 1000 sampled, 0 divergences, 0 demotions", c)
	}
}

// TestAOTModeFallsBackWithoutRegistryHit installs a program that is not in
// the generated corpus into a ModeAOT kernel: the fire must still succeed
// through the JIT fallback.
func TestAOTModeFallsBackWithoutRegistryHit(t *testing.T) {
	k := core.NewKernel(core.Config{Mode: core.ModeAOT})
	prog := &isa.Program{
		Name:  "not-in-corpus",
		Hook:  "test/fallback",
		Insns: isa.MustAssemble("add r1, r2\nmov r0, r1\nexit"),
	}
	if _, _, err := k.InstallProgram(prog); err != nil {
		t.Fatal(err)
	}
	v, _, err := k.RunProgramByName("not-in-corpus", 30, 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Fatalf("fallback verdict = %d, want 42", v)
	}
}

// TestSetModeSwitchesToAOT flips a live kernel into ModeAOT and back; the
// hot-path verdicts must not change.
func TestSetModeSwitchesToAOT(t *testing.T) {
	k, err := experiments.NewHotPathKernel(core.ModeJIT, false)
	if err != nil {
		t.Fatal(err)
	}
	before := k.Fire(experiments.HotPathHook, 9, 1, 3)
	k.SetMode(core.ModeAOT)
	if k.Mode() != core.ModeAOT || k.Mode().String() != "aot" {
		t.Fatalf("mode after SetMode = %v", k.Mode())
	}
	during := k.Fire(experiments.HotPathHook, 9, 1, 3)
	k.SetMode(core.ModeJIT)
	after := k.Fire(experiments.HotPathHook, 9, 1, 3)
	if before.Verdict != during.Verdict || before.Verdict != after.Verdict {
		t.Fatalf("verdict changed across mode flips: %d / %d / %d", before.Verdict, during.Verdict, after.Verdict)
	}
	if before.Steps != during.Steps {
		t.Fatalf("steps changed across mode flip: %d / %d", before.Steps, during.Steps)
	}
}
