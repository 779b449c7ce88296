package core

import (
	"errors"
	"fmt"

	"rmtk/internal/fault"
)

// This file implements the engine sentinel's online differential checker: a
// sampled fire runs twice — once on the fully-checked reference interpreter
// and once on the native tier under test — with both runs' globally-visible
// env writes buffered. The buffers, verdicts, trap outcomes, step counts and
// emissions are compared; exactly one buffer is committed. On divergence the
// checked run wins, so on a sampled fire neither a miscompiled verdict nor a
// miscompiled side effect can reach the caller or the context store.
//
// Both runs execute back to back on the firing goroutine against live context
// state. A concurrent fire on another key mutating state that both runs read
// is harmless (they read the same committed value or the overlay); a write
// racing *between* the two runs to a key this program reads can surface as a
// spurious divergence. Programs whose helpers are inherently nondeterministic
// (DP-noised aggregation) are excluded from checking entirely (checkable).

// ctxSlot keys one (key, field) cell of the context store in a write overlay.
type ctxSlot struct{ key, field int64 }

// writeCap buffers the globally visible writes of one engine run: context
// stores, history pushes, and vec-pool stores. Reads through env consult the
// overlay first (read-your-writes); commit applies the buffer to the real
// stores in a deterministic order.
type writeCap struct {
	ctx  map[ctxSlot]int64
	hist map[int64][]int64
	vecs map[int64][]int64
}

func (w *writeCap) storeCtx(key, field, val int64) {
	if w.ctx == nil {
		w.ctx = make(map[ctxSlot]int64, 4)
	}
	w.ctx[ctxSlot{key, field}] = val
}

func (w *writeCap) pushHist(key, val int64) {
	if w.hist == nil {
		w.hist = make(map[int64][]int64, 2)
	}
	w.hist[key] = append(w.hist[key], val)
}

func (w *writeCap) storeVec(id int64, src []int64) {
	if w.vecs == nil {
		w.vecs = make(map[int64][]int64, 2)
	}
	w.vecs[id] = append(w.vecs[id][:0], src...)
}

// readHist merges buffered pushes with the committed history: the result is
// the most-recent len(dst) window of (committed ++ app), oldest first —
// exactly what a post-commit Hist would return (the committed window read
// here is at least as wide as the slice of it the merge can need).
func (w *writeCap) readHist(k *Kernel, key int64, dst []int64, app []int64) int {
	if len(app) >= len(dst) {
		return copy(dst, app[len(app)-len(dst):])
	}
	n := k.ctx.Hist(key, dst)
	merged := make([]int64, 0, n+len(app))
	merged = append(merged, dst[:n]...)
	merged = append(merged, app...)
	if len(merged) > len(dst) {
		merged = merged[len(merged)-len(dst):]
	}
	return copy(dst, merged)
}

// commit applies the buffered writes. Per-cell last-write-wins is already
// collapsed in the ctx map; history pushes preserve per-key order; vec slots
// are independent — so map iteration order cannot change the outcome.
func (w *writeCap) commit(k *Kernel, rt *routes) {
	for s, v := range w.ctx {
		k.ctx.Store(s.key, s.field, v)
	}
	for key, vals := range w.hist {
		for _, v := range vals {
			k.ctx.HistPush(key, v)
		}
	}
	for id, src := range w.vecs {
		if slot, ok := rt.vecs[id]; ok { // else removed since capture; nothing to write
			slot.store(src)
		}
	}
}

// equal reports whether two captured write sets are identical.
func (w *writeCap) equal(o *writeCap) bool {
	if len(w.ctx) != len(o.ctx) || len(w.hist) != len(o.hist) || len(w.vecs) != len(o.vecs) {
		return false
	}
	for s, v := range w.ctx {
		if ov, ok := o.ctx[s]; !ok || ov != v {
			return false
		}
	}
	for key, v := range w.hist {
		if ov, ok := o.hist[key]; !ok || !int64SlicesEqual(v, ov) {
			return false
		}
	}
	for id, v := range w.vecs {
		if ov, ok := o.vecs[id]; !ok || !int64SlicesEqual(v, ov) {
			return false
		}
	}
	return true
}

// settle ends a checked pair or a shadow run: the captures are cleared, not
// dropped — a program that writes nothing, the common case, pays no map work.
func (s *scratch) settle() {
	s.refCap.reset()
	s.natCap.reset()
	s.refInv = Invocation{}
}

func (w *writeCap) reset() {
	if len(w.ctx) > 0 {
		clear(w.ctx)
	}
	if len(w.hist) > 0 {
		clear(w.hist)
	}
	if len(w.vecs) > 0 {
		clear(w.vecs)
	}
}

// engineRun is one side of a checked pair: what the run returned, what it
// cost, what it emitted and what it wrote.
type engineRun struct {
	ret, steps int64
	err        error // non-nil iff the run trapped
	emit       []int64
	writes     *writeCap
}

// runCheckedPair executes one sampled (or half-open-probed) engine execution
// differentially: the checked reference interpreter first, then the native
// tier, both under write capture and one after the other in the scratch's one
// env and machine state. Agreement commits the native buffer and feeds the
// ladder a success; any disagreement commits the *reference* buffer, answers
// the fire with the reference result, and charges a divergence to the native
// tier — demoting it immediately.
func (d *dispatch) runCheckedPair(p *progEntry, tier EngineTier, h *engineHealth, probe bool, fireIdx, arg3 int64) (int64, int64, bool, error) {
	k, s, sen := d.k, d.s, d.rt.sentinel
	defer s.settle()
	sen.ctrSampled.Add(1)

	// Reference run on a private invocation carrying the remaining emission
	// budget, so the guardrail binds identically in both runs.
	inv, refInv := &s.inv, &s.refInv
	*refInv = Invocation{
		Hook: inv.Hook, Key: inv.Key, Arg2: inv.Arg2, Arg3: inv.Arg3,
		emitBudget: inv.emitBudget - len(inv.emissions),
	}
	ref := engineRun{writes: &s.refCap}
	s.env = env{k: k, rt: d.rt, inv: refInv, wcap: ref.writes}
	ref.ret, ref.steps, ref.err = s.run(p.checked, nil, nil, inv.Key, inv.Arg2, arg3)
	ref.emit = refInv.emissions
	sen.ctrCheckSteps.Add(ref.steps)

	// Native run under capture. Emission/rate/inference positions are marked
	// so the native deltas can be compared — and replaced — in isolation.
	preEmit := len(inv.emissions)
	preRate := inv.rateHits
	preInf := inv.inferences
	nat := engineRun{writes: &s.natCap}
	nat.ret, nat.steps, _, nat.err = d.runNative(p, tier, arg3, nat.writes)
	nat.emit = inv.emissions[preEmit:]

	cause, detail := CauseDivergence, ""
	if nat.err != nil && errors.Is(nat.err, ErrProgramPanic) && ref.err == nil {
		// The native engine panicked where the reference completed: an engine
		// fault charged as a panic, answered with the reference result.
		cause, detail = CausePanic, nat.err.Error()
	} else if detail = diffDetail(&ref, &nat, s.out); detail == "" {
		// Agreement: the native result stands and its writes commit.
		nat.writes.commit(k, d.rt)
		if probe {
			sen.probeSucceeded(h, tier)
		} else {
			engineFireOK(h)
		}
		return nat.ret, nat.steps, nat.err != nil, nat.err
	} else {
		sen.ctrDiverged.Add(1)
	}
	sen.engineFault(h, tier, probe, fireIdx, cause, detail)
	ref.writes.commit(k, d.rt)
	inv.emissions = append(inv.emissions[:preEmit], ref.emit...)
	inv.rateHits = preRate + refInv.rateHits
	inv.inferences = preInf + refInv.inferences
	sen.ctrCheckedVerd.Add(1)
	if ref.err != nil {
		return 0, ref.steps, true, ref.err
	}
	return ref.ret, ref.steps, false, nil
}

// diffDetail compares the two runs and renders a divergence description, or
// "" on agreement. Both-trapped runs agree when they trapped at the same cost
// with the same writes (the verdict is moot — the default action applies).
func diffDetail(ref, nat *engineRun, out *fault.Outcome) string {
	if out != nil && out.ForceDiverge {
		return "injected forced divergence"
	}
	trapped, refTrapped := nat.err != nil, ref.err != nil
	if trapped != refTrapped {
		return fmt.Sprintf("trap mismatch: native trapped=%v (%v), checked trapped=%v (%v)", trapped, nat.err, refTrapped, ref.err)
	}
	if !trapped && nat.ret != ref.ret {
		return fmt.Sprintf("verdict mismatch: native %d, checked %d", nat.ret, ref.ret)
	}
	if nat.steps != ref.steps {
		return fmt.Sprintf("step mismatch: native %d, checked %d", nat.steps, ref.steps)
	}
	if !int64SlicesEqual(nat.emit, ref.emit) {
		return fmt.Sprintf("emission mismatch: native %v, checked %v", nat.emit, ref.emit)
	}
	if !nat.writes.equal(ref.writes) {
		return "side-effect mismatch: captured env writes differ"
	}
	return ""
}
