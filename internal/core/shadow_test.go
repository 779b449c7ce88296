package core

import (
	"errors"
	"testing"

	"rmtk/internal/isa"
	"rmtk/internal/table"
)

// shadowRig installs an incumbent program returning verdict 1 on hook
// "mm/shadow" and returns the kernel, table and program id.
func shadowRig(t *testing.T) (*Kernel, *table.Table, int64) {
	t.Helper()
	k := NewKernel(Config{})
	tb := table.New("t", "mm/shadow", table.MatchExact)
	if _, err := k.CreateTable(tb); err != nil {
		t.Fatal(err)
	}
	pid := install(t, k, &isa.Program{
		Name:  "incumbent",
		Insns: isa.MustAssemble("movimm r0, 1\nexit"),
	})
	if err := tb.Insert(&table.Entry{Key: 1, Action: table.Action{Kind: table.ActionProgram, ProgID: pid}}); err != nil {
		t.Fatal(err)
	}
	return k, tb, pid
}

// TestShadowProgramDivergence runs a candidate program in shadow whose
// verdict differs from the incumbent's: the live result must be untouched
// (verdict, latency, steps), and the report must count the divergence.
func TestShadowProgramDivergence(t *testing.T) {
	k, _, _ := shadowRig(t)
	cand := install(t, k, &isa.Program{
		Name:  "candidate",
		Insns: isa.MustAssemble("movimm r0, 2\nexit"),
	})
	sh := NewProgramShadow("mm/shadow", cand)
	if err := k.AttachShadow(sh); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 10; i++ {
		res := k.Fire("mm/shadow", 1, 0, 0)
		if res.Verdict != 1 {
			t.Fatalf("fire %d: live verdict = %d, want 1 (shadow leaked)", i, res.Verdict)
		}
		if res.DelayNs != 0 {
			t.Fatalf("fire %d: shadow charged %dns to the datapath", i, res.DelayNs)
		}
		if res.Trapped || res.FellBack {
			t.Fatalf("fire %d: %+v", i, res)
		}
	}
	rep := sh.Report()
	if rep.Fires != 10 || rep.Divergences != 10 || rep.VerdictDiffs != 10 {
		t.Fatalf("report = %+v, want 10 fires all verdict-divergent", rep)
	}
	if rep.Traps != 0 || rep.EmitDiffs != 0 {
		t.Fatalf("report = %+v, want no traps/emit diffs", rep)
	}
	if rep.ShadowSteps == 0 || rep.LiveSteps == 0 {
		t.Fatalf("report = %+v, want step accounting on both sides", rep)
	}
	if got := k.Metrics.Counter("core.shadow_divergences").Load(); got != 10 {
		t.Fatalf("shadow_divergences = %d", got)
	}
}

// TestShadowAgreement: an identical candidate diverges never.
func TestShadowAgreement(t *testing.T) {
	k, _, _ := shadowRig(t)
	cand := install(t, k, &isa.Program{
		Name:  "same",
		Insns: isa.MustAssemble("movimm r0, 1\nexit"),
	})
	sh := NewProgramShadow("mm/shadow", cand)
	if err := k.AttachShadow(sh); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		k.Fire("mm/shadow", 1, 0, 0)
	}
	rep := sh.Report()
	if rep.Fires != 8 || rep.Divergences != 0 || rep.Traps != 0 {
		t.Fatalf("report = %+v, want 8 clean agreeing fires", rep)
	}
	if f := rep.DivergenceFrac(); f != 0 {
		t.Fatalf("DivergenceFrac = %v", f)
	}
}

// TestShadowWriteSuppression: a candidate that stores into the context and
// pushes history must leave both untouched — shadow runs are side-effect
// free with respect to state the incumbent reads.
func TestShadowWriteSuppression(t *testing.T) {
	k, _, _ := shadowRig(t)
	cand := install(t, k, &isa.Program{
		Name: "writer",
		Insns: isa.MustAssemble(`
			movimm r4, 99
			stctxt r1, 0, r4
			histpush r1, r4
			movimm r0, 1
			exit`),
	})
	sh := NewProgramShadow("mm/shadow", cand)
	if err := k.AttachShadow(sh); err != nil {
		t.Fatal(err)
	}
	k.Fire("mm/shadow", 1, 0, 0)
	if got := k.Ctx().Load(1, 0); got != 0 {
		t.Fatalf("ctx[1].field[0] = %d, want 0 (shadow write leaked)", got)
	}
	var buf [1]int64
	if n := k.Ctx().Hist(1, buf[:]); n != 0 {
		t.Fatalf("history length = %d, want 0 (shadow histpush leaked)", n)
	}
	if rep := sh.Report(); rep.Fires != 1 || rep.Traps != 0 {
		t.Fatalf("report = %+v", rep)
	}

	// Suppressed is not lost: a candidate that stores a field and loads it
	// back reads its own write, as it would live, and still leaves no trace.
	k.DetachShadow("mm/shadow")
	sh = NewProgramShadow("mm/shadow", install(t, k, &isa.Program{
		Name: "readback",
		Insns: isa.MustAssemble(`
			movimm r4, 99
			stctxt r1, 0, r4
			ldctxt r0, r1, 0
			exit`),
	}))
	var verdicts []int64
	sh.SetOnResult(func(_, verdict int64, _ []int64, _ bool) { verdicts = append(verdicts, verdict) })
	if err := k.AttachShadow(sh); err != nil {
		t.Fatal(err)
	}
	k.Fire("mm/shadow", 1, 0, 0)
	k.Fire("mm/shadow", 1, 0, 0) // and the first run's capture does not outlive it
	if len(verdicts) != 2 || verdicts[0] != 99 || verdicts[1] != 99 {
		t.Fatalf("shadow verdicts = %v, want [99 99]: the candidate must read the field it just stored", verdicts)
	}
	if got := k.Ctx().Load(1, 0); got != 0 {
		t.Fatalf("ctx[1].field[0] = %d, want 0 (shadow write leaked)", got)
	}
}

// TestShadowModelOverlay: an ActionInfer entry shadowed with a candidate
// model — the live path must keep using the incumbent, the shadow must see
// the candidate, and a panicking candidate must be contained into a shadow
// trap without perturbing the live fire.
func TestShadowModelOverlay(t *testing.T) {
	k := NewKernel(Config{})
	tb := table.New("t", "mm/infer", table.MatchExact)
	if _, err := k.CreateTable(tb); err != nil {
		t.Fatal(err)
	}
	incumbent := &FuncModel{Fn: func(x []int64) int64 { return 10 }, Feats: 2}
	mid := k.RegisterModel(incumbent)
	if err := tb.Insert(&table.Entry{Key: 1, Action: table.Action{Kind: table.ActionInfer, ModelID: mid}}); err != nil {
		t.Fatal(err)
	}
	k.Ctx().HistPush(1, 3)
	k.Ctx().HistPush(1, 4)

	candidate := &FuncModel{Fn: func(x []int64) int64 { return 20 }, Feats: 2}
	sh := NewModelShadow("mm/infer", mid, candidate)
	if err := k.AttachShadow(sh); err != nil {
		t.Fatal(err)
	}
	res := k.Fire("mm/infer", 1, 0, 0)
	if res.Verdict != 10 {
		t.Fatalf("live verdict = %d, want incumbent's 10", res.Verdict)
	}
	rep := sh.Report()
	if rep.Fires != 1 || rep.VerdictDiffs != 1 {
		t.Fatalf("report = %+v, want 1 verdict-divergent fire", rep)
	}

	// Panicking candidate: shadow trap, live fire unharmed.
	k.DetachShadow("mm/infer")
	boom := &FuncModel{Fn: func(x []int64) int64 { panic("bad weights") }, Feats: 2}
	sh2 := NewModelShadow("mm/infer", mid, boom)
	if err := k.AttachShadow(sh2); err != nil {
		t.Fatal(err)
	}
	res = k.Fire("mm/infer", 1, 0, 0)
	if res.Verdict != 10 || res.Trapped {
		t.Fatalf("live fire with panicking shadow: %+v", res)
	}
	if rep := sh2.Report(); rep.Traps != 1 {
		t.Fatalf("report = %+v, want 1 contained trap", rep)
	}
	if got := k.Metrics.Counter("core.shadow_model_panics").Load(); got != 1 {
		t.Fatalf("shadow_model_panics = %d", got)
	}
}

// TestShadowEmitDivergence: candidates are compared on emissions too — the
// prefetch datapath's programs always return verdict 0 and carry their
// decision in emitted pages.
func TestShadowEmitDivergence(t *testing.T) {
	k, _, _ := shadowRig(t)
	// Incumbent emits nothing; candidate emits page 7.
	cand := install(t, k, &isa.Program{
		Name: "emitter",
		Insns: isa.MustAssemble(`
			movimm r1, 7
			call 1 ; rmt_emit
			movimm r0, 1
			exit`),
		Helpers: []int64{HelperEmit},
	})
	sh := NewProgramShadow("mm/shadow", cand)
	if err := k.AttachShadow(sh); err != nil {
		t.Fatal(err)
	}
	var got []int64
	sh.SetOnResult(func(key, verdict int64, emissions []int64, trapped bool) {
		if key != 1 {
			t.Errorf("onResult key = %d, want 1", key)
		}
		got = append(got, emissions...)
	})
	res := k.Fire("mm/shadow", 1, 0, 0)
	if len(res.Emissions) != 0 {
		t.Fatalf("live emissions = %v, want none (shadow emissions leaked)", res.Emissions)
	}
	rep := sh.Report()
	if rep.EmitDiffs != 1 || rep.Divergences != 1 {
		t.Fatalf("report = %+v, want 1 emit divergence", rep)
	}
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("onResult emissions = %v, want [7]", got)
	}
}

// TestShadowAttachSemantics: one shadow per hook, detach returns it.
func TestShadowAttachSemantics(t *testing.T) {
	k, _, _ := shadowRig(t)
	sh := NewProgramShadow("mm/shadow", 1)
	if err := k.AttachShadow(sh); err != nil {
		t.Fatal(err)
	}
	if err := k.AttachShadow(NewProgramShadow("mm/shadow", 2)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("second attach err = %v, want ErrDuplicate", err)
	}
	if got := k.ShadowAt("mm/shadow"); got != sh {
		t.Fatalf("ShadowAt = %v", got)
	}
	if got := k.DetachShadow("mm/shadow"); got != sh {
		t.Fatalf("DetachShadow = %v", got)
	}
	if got := k.ShadowAt("mm/shadow"); got != nil {
		t.Fatalf("shadow still attached after detach")
	}
}

// TestRemoveTable: removal detaches from the hook pipeline and fires fail
// soft afterwards.
func TestRemoveTable(t *testing.T) {
	k, _, _ := shadowRig(t)
	_, id, err := k.TableByName("t")
	if err != nil {
		t.Fatal(err)
	}
	if res := k.Fire("mm/shadow", 1, 0, 0); res.Matched != 1 {
		t.Fatalf("pre-removal fire: %+v", res)
	}
	if err := k.RemoveTable(id); err != nil {
		t.Fatal(err)
	}
	if res := k.Fire("mm/shadow", 1, 0, 0); res.Matched != 0 || res.Verdict != DefaultVerdict {
		t.Fatalf("post-removal fire: %+v", res)
	}
	if err := k.RemoveTable(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double removal err = %v", err)
	}
}
