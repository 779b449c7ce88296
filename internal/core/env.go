package core

import (
	"fmt"

	"rmtk/internal/isa"
	"rmtk/internal/table"
	"rmtk/internal/vm"
)

// env implements vm.Env against one immutable route snapshot. It is the only
// surface admitted bytecode can touch; everything here is covered by the
// verifier's resource whitelists. Resolving resources through the snapshot
// (not the kernel's mutable maps) keeps program execution lock-free: the only
// locks ever taken are the context-store shard and the vector slot being
// accessed.
type env struct {
	k *Kernel
	// rt is the route snapshot the enclosing Fire dispatched through.
	rt *routes
	// inv is the current invocation (set by Fire around each run). Helpers
	// use it for emissions and rate limiting.
	inv *Invocation
	// overlay redirects model-id lookups for shadow execution: Infer consults
	// it before the kernel registry, so a candidate model can ride the
	// incumbent's program without being registered.
	overlay map[int64]Model
	// wcap, when non-nil, buffers globally visible writes instead of
	// committing them, with read-your-writes consistency (reads consult the
	// buffer first). The engine sentinel's differential checker runs both
	// the reference and the sampled native execution under capture, compares
	// the buffers, and commits exactly one of them — so on a sampled fire a
	// miscompiled side effect can no more escape than a miscompiled verdict. A
	// shadow run's capture is never committed: the candidate cannot perturb
	// state the incumbent reads (its emissions land in inv, a private
	// invocation, and feed divergence accounting).
	wcap *writeCap
	// ctxKey and ctx memoize the context record the run last resolved, so a
	// program that touches one key (the collect program's pid, five times)
	// finds its record once. The env is rebuilt for every run, so the memo
	// dies with the run: a Drop between two runs is seen by the second.
	ctxKey int64
	ctx    *table.CtxRec
}

var _ vm.Env = (*env)(nil)

// ctxFind returns key's context record, or nil when it has none. A miss is
// not memoized: a record a later write creates is found.
func (e *env) ctxFind(key int64) *table.CtxRec {
	if e.ctx != nil && e.ctxKey == key {
		return e.ctx
	}
	r := e.k.ctx.Find(key)
	if r != nil {
		e.ctxKey, e.ctx = key, r
	}
	return r
}

// ctxRec returns key's context record, creating it on first touch.
func (e *env) ctxRec(key int64) *table.CtxRec {
	if e.ctx == nil || e.ctxKey != key {
		e.ctxKey, e.ctx = key, e.k.ctx.Rec(key)
	}
	return e.ctx
}

func (e *env) CtxLoad(key, field int64) int64 {
	if e.wcap != nil {
		if v, ok := e.wcap.ctx[ctxSlot{key, field}]; ok {
			return v
		}
	}
	return e.ctxFind(key).Load(field)
}

func (e *env) CtxStore(key, field, val int64) {
	if e.wcap != nil {
		e.wcap.storeCtx(key, field, val)
		return
	}
	if uint64(field) < uint64(e.k.ctx.NumFields()) { // an out-of-range store creates no record
		e.ctxRec(key).Store(field, val)
	}
}

func (e *env) CtxHistPush(key, val int64) {
	if e.wcap != nil {
		e.wcap.pushHist(key, val)
		return
	}
	e.ctxRec(key).HistPush(val)
}

func (e *env) CtxHist(key int64, dst []int64) int {
	if e.wcap != nil {
		if app := e.wcap.hist[key]; len(app) > 0 {
			return e.wcap.readHist(e.k, key, dst, app)
		}
	}
	return e.ctxFind(key).Hist(dst)
}

func (e *env) Match(tableID, key int64) int64 {
	t, ok := e.rt.tables[tableID]
	if !ok {
		return -1
	}
	entry := t.Lookup(uint64(key))
	if entry == nil {
		return -1
	}
	return entry.Action.Param
}

func (e *env) Call(helperID int64, args *[5]int64) (ret int64, err error) {
	if e.inv != nil && e.inv.injectHelperErr != nil {
		herr := e.inv.injectHelperErr
		e.inv.injectHelperErr = nil
		return 0, herr
	}
	h, ok := e.rt.helpers[helperID]
	if !ok {
		return 0, fmt.Errorf("%w: helper %d", ErrNotFound, helperID)
	}
	// A panicking helper traps the calling program instead of killing the
	// process: helpers are kernel code, but the blast radius of a bug in one
	// must stay inside the invocation (§3.3).
	defer func() {
		if r := recover(); r != nil {
			e.k.cHelperPanics.Inc()
			err = fmt.Errorf("%w: helper %d: %v", ErrHelperPanic, helperID, r)
		}
	}()
	if e.inv != nil {
		e.inv.env = e
	}
	return h.fn(e.k, e.inv, args)
}

func (e *env) MatVec(id int64, in []int64, out []int64) (int, error) {
	m, ok := e.rt.mats[id]
	if !ok {
		return 0, fmt.Errorf("%w: matrix %d", ErrNotFound, id)
	}
	if len(in) != m.In {
		return 0, fmt.Errorf("core: matrix %d wants input %d, got %d", id, m.In, len(in))
	}
	if len(out) < m.Out {
		return 0, fmt.Errorf("core: matrix %d output needs %d slots, got %d", id, m.Out, len(out))
	}
	for o := 0; o < m.Out; o++ {
		sum := m.B[o]
		row := m.W[o*m.In : (o+1)*m.In]
		for i, x := range in {
			sum += row[i] * x
		}
		out[o] = sum
	}
	return m.Out, nil
}

func (e *env) Infer(modelID int64, features []int64) (int64, error) {
	m, ok := e.overlay[modelID]
	if !ok {
		mb := e.rt.model(modelID)
		if mb == nil {
			return 0, fmt.Errorf("%w: model %d", ErrNotFound, modelID)
		}
		m = mb.Model
	}
	if e.inv != nil {
		e.inv.inferences++
	}
	return m.Predict(features), nil
}

func (e *env) VecLoad(id int64, dst []int64) (int, error) {
	if e.wcap != nil {
		if v, ok := e.wcap.vecs[id]; ok {
			if len(dst) < len(v) {
				return 0, vm.ErrVecTooLong
			}
			return copy(dst, v), nil
		}
	}
	slot, ok := e.rt.vecs[id]
	if !ok {
		return 0, fmt.Errorf("%w: vec %d", ErrNotFound, id)
	}
	slot.mu.RLock()
	v := slot.v
	n := copy(dst, v)
	short := n < len(v)
	slot.mu.RUnlock()
	if short {
		return 0, vm.ErrVecTooLong
	}
	return n, nil
}

func (e *env) VecStore(id int64, src []int64) error {
	slot, ok := e.rt.vecs[id]
	if !ok {
		return fmt.Errorf("%w: vec %d", ErrNotFound, id)
	}
	if e.wcap != nil {
		e.wcap.storeVec(id, src)
	} else {
		slot.store(src)
	}
	return nil
}

func (e *env) TailProgram(id int64) (*isa.Program, error) {
	p := e.rt.prog(id)
	if p == nil {
		return nil, fmt.Errorf("%w: program %d", ErrNotFound, id)
	}
	return p.prog, nil
}
