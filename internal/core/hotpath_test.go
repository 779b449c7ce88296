package core

import (
	"fmt"
	"sync"
	"testing"

	"rmtk/internal/isa"
	"rmtk/internal/table"
)

// This file tests the sharded hot path: FireBatch equivalence with sequential
// Fire (verdicts and telemetry), concurrent-batch equivalence under -race,
// and verdict-cache invalidation across table, model and program swaps.

const hpTestHook = "test/hotpath"

// newHotPathTestKernel installs a verifier-certified pure program — verdict =
// model(key, arg2) — behind an exact table with keys 0..keys-1.
func newHotPathTestKernel(t testing.TB, keys int) (*Kernel, int64, int64, *table.Table) {
	t.Helper()
	k := NewKernel(Config{})
	modelID := k.RegisterModel(&FuncModel{
		Fn:    func(x []int64) int64 { return 10*x[0] + x[1] },
		Feats: 2,
	})
	prog := &isa.Program{
		Name: "hp_pure",
		Hook: hpTestHook,
		Insns: isa.MustAssemble(fmt.Sprintf(`
        veczero v0, 2
        vecset  v0, 0, r1
        vecset  v0, 1, r2
        mlinfer r0, v0, %d
        exit`, modelID)),
		Models: []int64{modelID},
	}
	progID, rep, err := k.InstallProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pure {
		t.Fatalf("test program not certified pure: %+v", rep)
	}
	tb := table.New("hp_tab", hpTestHook, table.MatchExact)
	if _, err := k.CreateTable(tb); err != nil {
		t.Fatal(err)
	}
	for key := 0; key < keys; key++ {
		if err := tb.Insert(&table.Entry{
			Key:    uint64(key),
			Action: table.Action{Kind: table.ActionProgram, ProgID: progID},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return k, modelID, progID, tb
}

type hpTelemetry struct {
	fires, infers       int64
	tierFires           [TierAOT + 1]int64
	stepsCount, stepSum int64
	cacheLookups        int64 // verdict cache hits+misses
}

func readHPTelemetry(k *Kernel) hpTelemetry {
	vs := k.VerdictCacheStats()
	tel := hpTelemetry{
		fires:        k.ctrFires.Load(),
		infers:       k.ctrInfers.Load(),
		stepsCount:   k.histSteps.Count(),
		stepSum:      k.histSteps.Sum(),
		cacheLookups: vs.Hits + vs.Misses,
	}
	for tier, c := range k.ctrTierFires {
		tel.tierFires[tier] = c.Load()
	}
	return tel
}

// hpEvents builds a deterministic event mix: mostly present keys (cache
// hits after warmup), some absent (table misses).
func hpEvents(n, keys int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		key := int64(i % (keys + keys/4)) // ~20% miss the table
		evs[i] = Event{Hook: hpTestHook, Key: key, Arg2: int64(i % 5), Arg3: 3}
	}
	return evs
}

// hpTestHook2 is a second pipeline for the batch tests: even keys run a pure
// program shorter than hp_pure (so the step histogram sees two values), odd
// keys answer a parameter.
const hpTestHook2 = "test/hotpath2"

func addSecondHotPathHook(t testing.TB, k *Kernel, keys int) {
	t.Helper()
	progID, rep, err := k.InstallProgram(&isa.Program{Name: "hp_pure2", Hook: hpTestHook2,
		Insns: isa.MustAssemble("mov r0, r1\naddimm r0, 7\nexit")})
	if err != nil || !rep.Pure {
		t.Fatalf("install hp_pure2: %v (report %+v)", err, rep)
	}
	tb := table.New("hp_tab2", hpTestHook2, table.MatchExact)
	if _, err := k.CreateTable(tb); err != nil {
		t.Fatal(err)
	}
	for key := 0; key < keys; key++ {
		a := table.Action{Kind: table.ActionProgram, ProgID: progID}
		if key%2 == 1 {
			a = table.Action{Kind: table.ActionParam, Param: int64(key)}
		}
		if err := tb.Insert(&table.Entry{Key: uint64(key), Action: a}); err != nil {
			t.Fatal(err)
		}
	}
}

// hpMixedEvents is hpEvents over three hooks: the two pipelines alternating
// event by event, then in runs of seven, with every ninth event at a hook
// that has no tables.
func hpMixedEvents(n, keys int) []Event {
	evs := hpEvents(n, keys)
	for i := range evs {
		switch {
		case i%9 == 8:
			evs[i].Hook = "test/hotpath/none"
		case i < n/2 && i%2 == 1, i >= n/2 && i/7%2 == 1:
			evs[i].Hook = hpTestHook2
		}
	}
	return evs
}

// TestFireBatchMatchesSequential: the same event sequence driven through
// FireBatch must produce the same verdicts AND the same telemetry (fire
// counts, engine fires per tier, step accounting, verdict cache outcomes) as
// sequential Fire calls on an identically configured
// kernel — over a mix of two pipelines (alternating and in runs), a hook with
// no tables and keys absent from the tables. A batch keeps books: its counts
// become visible when FireBatch returns, so a Prep inside the batch reads
// exactly what was there when the batch began, and after each batch the two
// kernels agree again.
func TestFireBatchMatchesSequential(t *testing.T) {
	const keys, n = 32, 1000
	ks, _, _, _ := newHotPathTestKernel(t, keys)
	kb, _, _, _ := newHotPathTestKernel(t, keys)
	addSecondHotPathHook(t, ks, keys)
	addSecondHotPathHook(t, kb, keys)
	events := hpMixedEvents(n, keys)

	// What the books carry (entries stored and invalidations are written as
	// they happen).
	type counts struct{ fires, hits, misses, declined int64 }
	read := func() counts {
		var c counts
		for _, l := range kb.Metrics.Snapshot() {
			fmt.Sscanf(l, "core.fires %d", &c.fires)
		}
		vs := kb.VerdictCacheStats()
		c.hits, c.misses, c.declined = vs.Hits, vs.Misses, vs.Declined
		return c
	}
	var atStart counts
	preps := 0
	for i := 5; i < n; i += 16 {
		events[i].Prep = func() {
			preps++
			if got := read(); got != atStart {
				t.Errorf("event %d: a Prep inside the batch reads %+v, want the counts at the batch's start %+v", i, got, atStart)
			}
		}
	}

	seq := make([]FireResult, n)
	bat := make([]FireResult, n)
	for from := 0; from < n; from += 64 {
		to := min(from+64, n)
		for i := from; i < to; i++ {
			ev := events[i]
			seq[i] = ks.Fire(ev.Hook, ev.Key, ev.Arg2, ev.Arg3)
		}
		atStart = read()
		kb.FireBatch(events[from:to], bat[from:to])
		if got, want := readHPTelemetry(kb), readHPTelemetry(ks); got != want {
			t.Fatalf("after the batch ending at event %d, telemetry diverges:\n batch      %+v\n sequential %+v", to, got, want)
		}
		if got, want := kb.VerdictCacheStats(), ks.VerdictCacheStats(); got != want {
			t.Fatalf("after the batch ending at event %d, verdict cache stats diverge:\n batch      %+v\n sequential %+v", to, got, want)
		}
	}
	if preps == 0 {
		t.Fatal("no Prep ran")
	}

	for i := range seq {
		if seq[i].Verdict != bat[i].Verdict || seq[i].Matched != bat[i].Matched ||
			seq[i].Steps != bat[i].Steps || seq[i].CacheHit != bat[i].CacheHit {
			t.Fatalf("event %d diverges: sequential %+v, batch %+v", i, seq[i], bat[i])
		}
	}
	if vs := kb.VerdictCacheStats(); vs.Hits == 0 || vs.Declined == 0 {
		t.Fatalf("verdict cache stats %+v: want hits and declines on a repeating key mix", vs)
	}
}

// TestFireBatchPanickingPrepSettles: a Prep that panics ends its batch, and
// the events that fired before it are counted all the same — FireBatch
// settles its books on the way out.
func TestFireBatchPanickingPrepSettles(t *testing.T) {
	k, _, _, _ := newHotPathTestKernel(t, 4)
	events := []Event{
		{Hook: hpTestHook, Key: 1},
		{Hook: hpTestHook, Key: 2},
		{Hook: hpTestHook, Key: 3, Prep: func() { panic("prep") }},
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the Prep's panic did not reach the caller")
			}
		}()
		k.FireBatch(events, make([]FireResult, len(events)))
	}()
	tel := readHPTelemetry(k)
	if tel.fires != 2 || tel.cacheLookups != 2 || tel.stepsCount != 2 {
		t.Fatalf("telemetry after a panicking Prep = %+v; want the two events before it counted", tel)
	}
}

// TestFireBatchConcurrentEquivalence: concurrent FireBatch callers must
// produce, per event, the verdict sequential Fire produces, and the summed
// telemetry must come out exact — cache-hit/miss splits may vary with
// interleaving (and engine fires per tier with them), but fires and steps
// must not. Run under -race this is also the hot path's data-race proof.
func TestFireBatchConcurrentEquivalence(t *testing.T) {
	const keys, n, workers = 32, 1024, 8
	ks, _, _, _ := newHotPathTestKernel(t, keys)
	kc, _, _, _ := newHotPathTestKernel(t, keys)
	events := hpEvents(n, keys)

	want := make([]FireResult, n)
	for i, ev := range events {
		want[i] = ks.Fire(ev.Hook, ev.Key, ev.Arg2, ev.Arg3)
	}

	got := make([]FireResult, n)
	per := n / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			from, to := w*per, (w+1)*per
			// Two batches per worker so batch boundaries interleave.
			mid := from + per/2
			kc.FireBatch(events[from:mid], got[from:mid])
			kc.FireBatch(events[mid:to], got[mid:to])
		}(w)
	}
	wg.Wait()

	for i := range want {
		if want[i].Verdict != got[i].Verdict || want[i].Matched != got[i].Matched ||
			want[i].Steps != got[i].Steps {
			t.Fatalf("event %d diverges: sequential %+v, concurrent %+v", i, want[i], got[i])
		}
	}
	seqTel, conTel := readHPTelemetry(ks), readHPTelemetry(kc)
	if seqTel.fires != conTel.fires || seqTel.infers != conTel.infers ||
		seqTel.stepsCount != conTel.stepsCount || seqTel.stepSum != conTel.stepSum {
		t.Fatalf("telemetry sums diverge:\n concurrent %+v\n sequential %+v", conTel, seqTel)
	}
	// Every fire either hit or missed the verdict cache.
	if conTel.cacheLookups != conTel.fires {
		t.Fatalf("verdict cache consulted %d times for %d fires", conTel.cacheLookups, conTel.fires)
	}
}

// TestVerdictCacheInvalidationOnSwap: a memoized verdict must be dropped —
// and the fresh pipeline outcome observed — after a model swap, a table
// entry mutation, and a program retarget.
func TestVerdictCacheInvalidationOnSwap(t *testing.T) {
	k, modelID, _, tb := newHotPathTestKernel(t, 4)

	fire := func() FireResult { return k.Fire(hpTestHook, 1, 2, 0) }
	if v := fire().Verdict; v != 12 {
		t.Fatalf("initial verdict = %d, want 12", v)
	}
	// Second-touch admission: the first fire left a fingerprint, the second
	// stores, the third replays.
	if res := fire(); res.CacheHit || res.Verdict != 12 {
		t.Fatalf("second fire should store, not replay: %+v", res)
	}
	if res := fire(); !res.CacheHit || res.Verdict != 12 {
		t.Fatalf("third fire not replayed: %+v", res)
	}

	// Model swap: same program, new weights.
	if err := k.SwapModel(modelID, &FuncModel{
		Fn:    func(x []int64) int64 { return 100*x[0] + x[1] },
		Feats: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if res := fire(); res.CacheHit || res.Verdict != 102 {
		t.Fatalf("model swap not observed: %+v", res)
	}
	if res := fire(); !res.CacheHit || res.Verdict != 102 {
		t.Fatalf("post-swap verdict not re-cached: %+v", res)
	}
	if inv := k.VerdictCacheStats().Invalidations; inv == 0 {
		t.Fatal("model swap recorded no cache invalidation")
	}

	// Table mutation: retarget the entry to a constant action.
	if !tb.UpdateAction(1, table.Action{Kind: table.ActionParam, Param: 77}) {
		t.Fatal("update failed")
	}
	if res := fire(); res.CacheHit || res.Verdict != 77 {
		t.Fatalf("table mutation not observed: %+v", res)
	}

	// Program swap: retarget to a freshly installed pure program.
	prog2 := &isa.Program{
		Name: "hp_pure_v2",
		Hook: hpTestHook,
		Insns: isa.MustAssemble(`
        mov r0, r1
        addimm r0, 1000
        exit`),
	}
	progID2, rep, err := k.InstallProgram(prog2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pure {
		t.Fatalf("v2 not pure: %+v", rep)
	}
	// Installing v2 changed nothing the param verdict read, so it is still
	// cached: the retarget below provably drops a cached verdict, not merely
	// misses.
	if res := fire(); !res.CacheHit || res.Verdict != 77 {
		t.Fatalf("installing an unreferenced program cost the cached verdict: %+v", res)
	}
	if !tb.UpdateAction(1, table.Action{Kind: table.ActionProgram, ProgID: progID2}) {
		t.Fatal("retarget failed")
	}
	if res := fire(); res.CacheHit || res.Verdict != 1001 {
		t.Fatalf("program retarget not observed: %+v", res)
	}
}

// TestFireBatchPrepStaging: Prep closures run inside the batch, immediately
// before their event dispatches.
func TestFireBatchPrepStaging(t *testing.T) {
	k := NewKernel(Config{})
	tb := table.New("prep_tab", "test/prep", table.MatchExact)
	if _, err := k.CreateTable(tb); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(&table.Entry{Key: 1, Action: table.Action{Kind: table.ActionParam, Param: 5}}); err != nil {
		t.Fatal(err)
	}
	var order []int
	events := []Event{
		{Hook: "test/prep", Key: 1, Prep: func() { order = append(order, 0) }},
		{Hook: "test/prep", Key: 1, Prep: func() { order = append(order, 1) }},
	}
	out := make([]FireResult, 2)
	k.FireBatch(events, out)
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("prep order = %v", order)
	}
	if out[0].Verdict != 5 || out[1].Verdict != 5 {
		t.Fatalf("verdicts = %+v", out)
	}
}
