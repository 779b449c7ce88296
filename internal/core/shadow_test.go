package core

import (
	"errors"
	"fmt"
	"testing"

	"rmtk/internal/isa"
	"rmtk/internal/table"
)

// inferAsm is an incumbent program whose verdict is its model's prediction.
const inferAsm = `
	veczero v0, 1
	mlinfer r0, v0, %d
	exit`

// constModel predicts v for every input.
func constModel(v int64) *FuncModel {
	return &FuncModel{Fn: func([]int64) int64 { return v }, Feats: 1}
}

// shadowRig registers model incumbent and installs, on hook "mm/shadow" behind
// key 1, an incumbent program assembled from asm with %d standing for the
// model's id. A shadow overlays that id, so it re-runs the incumbent's
// program with the candidate model. It returns the kernel and the model id.
func shadowRig(t *testing.T, incumbent Model, asm string, helpers ...int64) (*Kernel, int64) {
	t.Helper()
	k := NewKernel(Config{})
	tb := table.New("t", "mm/shadow", table.MatchExact)
	if _, err := k.CreateTable(tb); err != nil {
		t.Fatal(err)
	}
	mid := k.RegisterModel(incumbent)
	pid := install(t, k, &isa.Program{
		Name:    "incumbent",
		Insns:   isa.MustAssemble(fmt.Sprintf(asm, mid)),
		Models:  []int64{mid},
		Helpers: helpers,
	})
	if err := tb.Insert(&table.Entry{Key: 1, Action: table.Action{Kind: table.ActionProgram, ProgID: pid}}); err != nil {
		t.Fatal(err)
	}
	return k, mid
}

// TestShadowProgramDivergence runs, in shadow, the incumbent program with a
// candidate model whose verdict differs from the incumbent model's: the live
// result must be untouched (verdict, latency, steps), and the report must
// count the divergence.
func TestShadowProgramDivergence(t *testing.T) {
	k, mid := shadowRig(t, constModel(1), inferAsm)
	sh := NewModelShadow("mm/shadow", mid, constModel(2))
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

// TestShadowAgreement: a candidate that predicts what the incumbent does
// diverges never.
func TestShadowAgreement(t *testing.T) {
	k, mid := shadowRig(t, constModel(1), inferAsm)
	sh := NewModelShadow("mm/shadow", mid, constModel(1))
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

// TestShadowWriteSuppression: the incumbent increments a context field,
// pushes it to the history and scores the field it stored. The shadow re-runs
// that program after the live run, so a leaked shadow write would leave the
// field one ahead and the history one longer — shadow runs are side-effect
// free with respect to state the incumbent reads. Suppressed is not lost: the
// shadow scores the field it just stored, as it would live, and its capture
// does not outlive the run.
func TestShadowWriteSuppression(t *testing.T) {
	field := &FuncModel{Fn: func(x []int64) int64 { return x[0] }, Feats: 1}
	k, mid := shadowRig(t, field, `
		ldctxt r4, r1, 0
		addimm r4, 1
		stctxt r1, 0, r4
		histpush r1, r4
		ldctxt r5, r1, 0
		veczero v0, 1
		vecset v0, 0, r5
		mlinfer r0, v0, %d
		exit`)
	sh := NewModelShadow("mm/shadow", mid, field)
	var verdicts []int64
	sh.SetOnResult(func(_, verdict int64, _ []int64, _ bool) { verdicts = append(verdicts, verdict) })
	if err := k.AttachShadow(sh); err != nil {
		t.Fatal(err)
	}
	if res := k.Fire("mm/shadow", 1, 0, 0); res.Verdict != 1 {
		t.Fatalf("live verdict = %d, want 1", res.Verdict)
	}
	if got := k.Ctx().Load(1, 0); got != 1 {
		t.Fatalf("ctx[1].field[0] = %d, want 1 (2 means the shadow write leaked)", got)
	}
	if n := k.Ctx().HistLen(1); n != 1 {
		t.Fatalf("history length = %d, want 1 (2 means the shadow histpush leaked)", n)
	}
	if rep := sh.Report(); rep.Fires != 1 || rep.Traps != 0 {
		t.Fatalf("report = %+v", rep)
	}

	// A captured 2 that outlived the first run would make the second shadow
	// score 3; the live field is 10 by then, so a fresh capture scores 12.
	k.Ctx().Store(1, 0, 10)
	if res := k.Fire("mm/shadow", 1, 0, 0); res.Verdict != 11 {
		t.Fatalf("live verdict = %d, want 11", res.Verdict)
	}
	if len(verdicts) != 2 || verdicts[0] != 2 || verdicts[1] != 12 {
		t.Fatalf("shadow verdicts = %v, want [2 12]: the candidate must read the field it just stored", verdicts)
	}
	if got := k.Ctx().Load(1, 0); got != 11 {
		t.Fatalf("ctx[1].field[0] = %d, want 11 (shadow write leaked)", got)
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
	// The incumbent emits the page its model names: 3 live, 7 in shadow.
	k, mid := shadowRig(t, constModel(3), `
		veczero v0, 1
		mlinfer r1, v0, %d
		call 1 ; rmt_emit
		movimm r0, 1
		exit`, HelperEmit)
	sh := NewModelShadow("mm/shadow", mid, constModel(7))
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
	if len(res.Emissions) != 1 || res.Emissions[0] != 3 {
		t.Fatalf("live emissions = %v, want [3] (shadow emissions leaked)", res.Emissions)
	}
	rep := sh.Report()
	if rep.EmitDiffs != 1 || rep.Divergences != 1 || rep.VerdictDiffs != 0 {
		t.Fatalf("report = %+v, want 1 emit divergence", rep)
	}
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("onResult emissions = %v, want [7]", got)
	}
}

// TestShadowAttachSemantics: one shadow per hook, detach returns it.
func TestShadowAttachSemantics(t *testing.T) {
	k, mid := shadowRig(t, constModel(1), inferAsm)
	sh := NewModelShadow("mm/shadow", mid, constModel(1))
	if err := k.AttachShadow(sh); err != nil {
		t.Fatal(err)
	}
	if err := k.AttachShadow(NewModelShadow("mm/shadow", mid, constModel(2))); !errors.Is(err, ErrDuplicate) {
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
	k, _ := shadowRig(t, constModel(1), inferAsm)
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
