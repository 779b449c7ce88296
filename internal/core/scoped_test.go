package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"rmtk/internal/fault"
	"rmtk/internal/isa"
	"rmtk/internal/table"
	"rmtk/internal/verifier"
)

// This file checks the verdict cache's invariant — a cached verdict equals
// the uncached verdict — mechanically: two kernels built alike, one with the
// cache disabled, are driven through one schedule of fires interleaved with
// every mutator, and must agree after every fire. The schedule is a byte
// string, so the same driver serves the seeded test and FuzzScopedInvalidation.

const (
	diffKeys  = 5 // keys 0..3 have entries; 4 takes the default entry
	diffDeadP = 999
)

var diffHooks = []string{"d/a", "d/b", "ta:h", "tb:h"}

// diffTable is one table of the schedule, as each kernel holds it.
type diffTable struct {
	name string
	tabs [2]*table.Table
	id   int64
}

// diffPair is the two kernels and the schedule's view of their (identical)
// inventories. ks[0] caches, ks[1] does not.
type diffPair struct {
	ks     [2]*Kernel
	omit   string // the stamp component the cached kernel is made blind to
	tables []diffTable
	progs  []int64 // installed program ids an action may target
	m1     int64   // declared by the "infer" programs
	m2     int64   // declared by none
	tm     int64   // tenant ta's, declared by ta:infer
	seq    int     // names of created resources
	fires  int
	hits   int

	sentinel, shadow, tc, interp bool
}

func (p *diffPair) both(fn func(k *Kernel) error) error {
	ea, eb := fn(p.ks[0]), fn(p.ks[1])
	if (ea == nil) != (eb == nil) {
		return fmt.Errorf("mutator outcome differs: cached %v, uncached %v", ea, eb)
	}
	return nil
}

func diffModel(a, b int64) *FuncModel {
	return &FuncModel{Fn: func(x []int64) int64 { return a*x[0] + x[1] + b }, Feats: 2}
}

func diffInferProg(name, hook string, model int64) *isa.Program {
	return &isa.Program{
		Name: name, Hook: hook, Models: []int64{model},
		Insns: isa.MustAssemble(fmt.Sprintf(`
        veczero v0, 2
        vecset  v0, 0, r1
        vecset  v0, 1, r3
        mlinfer r0, v0, %d
        exit`, model)),
	}
}

func diffConstProg(name, hook string, c int64) *isa.Program {
	return &isa.Program{
		Name: name, Hook: hook,
		Insns: isa.MustAssemble(fmt.Sprintf(`
        mov    r0, r1
        add    r0, r2
        addimm r0, %d
        exit`, c)),
	}
}

func newDiffPair(omit string) (*diffPair, error) {
	p := &diffPair{omit: omit}
	for i := range p.ks {
		p.ks[i] = NewKernel(Config{DisableVerdictCache: i == 1, Quarantine: QuarantineConfig{CooldownFires: 6, ProbeSuccesses: 2}})
	}
	err := p.both(func(k *Kernel) error {
		for _, tn := range []string{"ta", "tb"} {
			if err := k.RegisterTenant(tn, TenantQuota{}); err != nil {
				return err
			}
		}
		p.m1 = k.RegisterModel(diffModel(10, 0))
		p.m2 = k.RegisterModel(diffModel(1, 1))
		var err error
		if p.tm, err = k.RegisterModelOwned("ta", diffModel(3, 0)); err != nil {
			return err
		}
		p.progs = p.progs[:0]
		for _, prog := range []*isa.Program{
			diffConstProg("const", "d/a", 7),
			diffInferProg("infer", "d/a", p.m1),
			diffConstProg("ta:const", "ta:h", 11),
			diffInferProg("ta:infer", "ta:h", p.tm),
			diffConstProg("tb:const", "tb:h", 13),
		} {
			id, rep, err := k.InstallProgram(prog)
			if err != nil {
				return err
			}
			if !rep.Pure {
				return fmt.Errorf("%s not certified pure", prog.Name)
			}
			p.progs = append(p.progs, id)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, hook := range diffHooks {
		if err := p.createTable(hook, 0); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// progFor picks a program an entry on hook may name: one the hook's tenant
// can see, a removed one, or an id that was never installed.
func (p *diffPair) progFor(hook string, x byte) int64 {
	if x%11 == 0 {
		return diffDeadP
	}
	for i := 0; i < len(p.progs); i++ {
		id := p.progs[(int(x)+i)%len(p.progs)]
		prog, err := p.ks[0].Program(id)
		if err != nil {
			return id // removed: the entry dangles
		}
		if o := tenantOf(prog.Name); o == "" || o == tenantOf(hook) {
			return id
		}
	}
	return diffDeadP
}

func (p *diffPair) action(hook string, x byte) table.Action {
	switch x % 4 {
	case 0:
		return table.Action{Kind: table.ActionParam, Param: int64(x) + 100}
	case 1:
		return table.Action{Kind: table.ActionProgram, ProgID: p.progFor(hook, x/4), Param: int64(x / 16)}
	default:
		return table.Action{Kind: table.ActionProgram, ProgID: p.progFor(hook, x/4)}
	}
}

// createTable adds a table to hook on both kernels: entries for keys 0..3 and
// a default, so every fire through it changes Matched and, last in the
// pipeline, the verdict.
func (p *diffPair) createTable(hook string, x byte) error {
	p.seq++
	dt := diffTable{name: TenantName(tenantOf(hook), fmt.Sprintf("tab%d", p.seq))}
	for i, k := range p.ks {
		t := table.New(dt.name, hook, table.MatchExact)
		id, err := k.CreateTable(t)
		if err != nil {
			return err
		}
		if i == 1 && id != dt.id {
			return fmt.Errorf("table ids diverge: %d vs %d", dt.id, id)
		}
		dt.id, dt.tabs[i] = id, t
		for key := 0; key < 4; key++ {
			if err := t.Insert(&table.Entry{Key: uint64(key), Action: p.action(hook, x+byte(key))}); err != nil {
				return err
			}
		}
		t.SetDefault(&table.Action{Kind: table.ActionParam, Param: 1000 + int64(x)})
	}
	p.tables = append(p.tables, dt)
	return nil
}

// blind makes the cached kernel's stored verdict for one flow pass the stamp
// component under omission, as if check did not compare it.
func (p *diffPair) blind(tenant, hook string, key, arg2, arg3 int64) {
	k := p.ks[0]
	ts := k.tenant(tenant)
	if ts == nil {
		return
	}
	rt := ts.route.Load()
	hr := rt.hooks[hook]
	if hr == nil || !hr.cacheable {
		return
	}
	fk := table.FlowKey{Hook: hr.id, Key: uint64(key), Arg2: arg2, Arg3: arg3}
	cf, ok := ts.vcache.Get(fk, ts.flush.Load())
	if !ok {
		return
	}
	switch p.omit {
	case "epoch":
		cf.epoch = hr.epoch
	case "table":
		for i := range cf.rows {
			cf.rows[i].ver = cf.rows[i].t.Version()
		}
	case "entry":
		// Restamp exact matches by the current version: the row passes now,
		// whether or not its entry was retired.
		for i := range cf.rows {
			if r := &cf.rows[i]; r.hit != nil {
				r.hit, r.ver = nil, r.t.Version()
			}
		}
	case "dep":
		if pb := rt.prog(cf.progID); pb != nil {
			cf.dep = pb.dep
		}
	}
}

func (p *diffPair) compare(what string, a, b FireResult) error {
	p.fires++
	if a.CacheHit {
		p.hits++
	}
	if b.CacheHit {
		return fmt.Errorf("%s: the uncached kernel reports a cache hit", what)
	}
	if a.Verdict != b.Verdict || a.Matched != b.Matched || a.Trapped != b.Trapped ||
		a.FellBack != b.FellBack || a.Steps != b.Steps {
		return fmt.Errorf("%s: cached %+v, uncached %+v", what, a, b)
	}
	return nil
}

// flow decodes one (hook, key, arg2) from two schedule bytes; arg3 is fixed
// so the flow space stays small enough to be revisited.
func diffFlow(x, y byte) (hook string, key, arg2 int64) {
	return diffHooks[int(x)%len(diffHooks)], int64(y) % diffKeys, int64(y/8) % 2
}

func (p *diffPair) fire(x, y byte) error {
	return p.fireFlow(diffFlow(x, y))
}

func (p *diffPair) fireFlow(hook string, key, arg2 int64) error {
	if p.omit != "" {
		p.blind("", hook, key, arg2, 3)
	}
	a, b := p.ks[0].Fire(hook, key, arg2, 3), p.ks[1].Fire(hook, key, arg2, 3)
	return p.compare(fmt.Sprintf("Fire(%s,%d,%d)", hook, key, arg2), a, b)
}

func (p *diffPair) fireBatch(x, y byte) error {
	evs := make([]Event, 8)
	for i := range evs {
		hook, key, arg2 := diffFlow(x+byte(i/4), y+byte(3*i))
		evs[i] = Event{Hook: hook, Key: key, Arg2: arg2, Arg3: 3}
		if p.omit != "" {
			p.blind("", hook, key, arg2, 3)
		}
	}
	var out [2][8]FireResult
	for i, k := range p.ks {
		k.FireBatch(evs, out[i][:])
	}
	for i := range evs {
		if err := p.compare(fmt.Sprintf("FireBatch[%d](%s,%d,%d)", i, evs[i].Hook, evs[i].Key, evs[i].Arg2), out[0][i], out[1][i]); err != nil {
			return err
		}
	}
	return nil
}

func (p *diffPair) fireTenant(x, y byte) error {
	tn := []string{"ta", "tb", "tc"}[int(x)%3]
	_, key, arg2 := diffFlow(0, y)
	if p.omit != "" {
		p.blind(tn, "h", key, arg2, 3)
	}
	a, ea := p.ks[0].FireTenant(tn, "h", key, arg2, 3)
	b, eb := p.ks[1].FireTenant(tn, "h", key, arg2, 3)
	if (ea == nil) != (eb == nil) {
		return fmt.Errorf("FireTenant(%s): cached %v, uncached %v", tn, ea, eb)
	}
	return p.compare(fmt.Sprintf("FireTenant(%s,%d,%d)", tn, key, arg2), a, b)
}

// hash returns the content hash of an installed program ("" once removed): the
// key engine quarantines are restored by.
func (p *diffPair) hash(k *Kernel, id int64) string {
	k.mu.RLock()
	defer k.mu.RUnlock()
	if pe := k.progs[id]; pe != nil {
		return pe.hash
	}
	return ""
}

var diffFallbacks = [2]Fallback{
	FallbackFunc{Label: "lo", Fn: func(string, int64, int64, int64) (int64, []int64) { return -7, nil }},
	FallbackFunc{Label: "hi", Fn: func(_ string, key, _, _ int64) (int64, []int64) { return 7000 + key, nil }},
}

// mutate applies one control-plane step, chosen by x, to both kernels.
func (p *diffPair) mutate(x, y byte) error {
	tab := func() diffTable { return p.tables[int(y)%len(p.tables)] }
	onTab := func(fn func(t *table.Table)) error {
		dt := tab()
		fn(dt.tabs[0])
		fn(dt.tabs[1])
		return nil
	}
	hookOf := func(dt diffTable) string { return dt.tabs[0].Hook }
	switch x % 32 {
	case 0, 1:
		dt := tab()
		return onTab(func(t *table.Table) {
			_ = t.Insert(&table.Entry{Key: uint64(y/8) % diffKeys, Action: p.action(hookOf(dt), y)}) // exact tables accept any entry
		})
	case 2:
		// The rollback shape (ctrl.Txn's undo of an insert over a key): the
		// key's entry leaves the table, is fired past when y&4 is set, and
		// the same pointer goes back in.
		dt := tab()
		key := uint64(y/8) % diffKeys
		var saved [2]*table.Entry
		for i, t := range dt.tabs {
			saved[i] = t.Probe(key)
			t.Delete(&table.Entry{Key: key})
		}
		if hook := hookOf(dt); y&4 != 0 && hook != "d/c" {
			for arg2 := int64(0); arg2 < 2; arg2++ {
				if err := p.fireFlow(hook, int64(key), arg2); err != nil {
					return err
				}
			}
		}
		for i, t := range dt.tabs {
			if saved[i] != nil {
				_ = t.Insert(saved[i])
			}
		}
		return nil
	case 3:
		return onTab(func(t *table.Table) { t.Delete(&table.Entry{Key: uint64(y/8) % diffKeys}) })
	case 4, 5, 6, 7:
		dt := tab()
		return onTab(func(t *table.Table) { t.UpdateAction(uint64(y/8)%4, p.action(hookOf(dt), y/2)) })
	case 8:
		return onTab(func(t *table.Table) {
			if y%5 == 0 {
				t.SetDefault(nil)
			} else {
				t.SetDefault(&table.Action{Kind: table.ActionParam, Param: 2000 + int64(y)})
			}
		})
	case 9, 10, 11:
		if len(p.tables) >= 10 {
			return nil
		}
		// d/c is never fired: the purely foreign hook.
		return p.createTable(append(diffHooks, "d/c")[int(y)%5], y)
	case 12:
		if len(p.tables) <= len(diffHooks) {
			return nil
		}
		i := int(y) % len(p.tables)
		dt := p.tables[i]
		p.tables = append(p.tables[:i:i], p.tables[i+1:]...)
		return p.both(func(k *Kernel) error { return k.RemoveTable(dt.id) })
	case 13, 14, 15:
		return p.both(func(k *Kernel) error { return k.SwapModel(p.m1, diffModel(int64(y%7)+2, int64(y))) })
	case 16:
		return p.both(func(k *Kernel) error { return k.SwapModel(p.m2, diffModel(int64(y), 5)) })
	case 17:
		return p.both(func(k *Kernel) error { return k.SwapModel(p.tm, diffModel(int64(y%5)+1, int64(y)+9)) })
	case 18, 19:
		p.seq++
		owner := []string{"", "ta", "tb"}[int(y)%3]
		prog := diffConstProg(TenantName(owner, fmt.Sprintf("p%d", p.seq)), TenantName(owner, "h"), int64(y)+20)
		var id int64
		err := p.both(func(k *Kernel) (err error) {
			id, _, err = k.InstallProgram(prog)
			return err
		})
		p.progs = append(p.progs, id)
		return err
	case 20:
		// Remove a program installed by case 12; its id stays targetable, so
		// entries naming it dangle.
		if len(p.progs) <= 5 {
			return nil
		}
		id := p.progs[5+int(y)%(len(p.progs)-5)]
		_ = p.both(func(k *Kernel) error { return k.RemoveProgram(id) }) // already removed: ErrNotFound on both
		return nil
	case 21:
		return p.both(func(k *Kernel) error {
			_, err := k.RegisterMatrix(&Matrix{In: 1, Out: 1, W: []int64{int64(y)}, B: []int64{1}})
			return err
		})
	case 23:
		return p.both(func(k *Kernel) error {
			k.Supervise(SupervisorConfig{JitterFrac: float64(y%8) / 8, Seed: int64(y)})
			return nil
		})
	case 24:
		// The ladder is all in: containment, demotion, probes, quarantine. The
		// sampler is kept out: its clock counts engine executions, of which a
		// cache legitimately has fewer, and a sampled fire answers an injected
		// panic (with the checked verdict) where an unsampled one traps.
		p.sentinel = !p.sentinel
		return p.both(func(k *Kernel) error {
			if p.sentinel {
				k.AttachSentinel(SentinelConfig{SampleEvery: 1 << 30, Seed: int64(y)})
			} else {
				k.DetachSentinel()
			}
			return nil
		})
	case 25:
		p.interp = !p.interp
		return p.both(func(k *Kernel) error {
			if p.interp {
				k.SetMode(ModeInterp)
			} else {
				k.SetMode(ModeJIT)
			}
			return nil
		})
	case 26:
		p.shadow = !p.shadow
		return p.both(func(k *Kernel) error {
			if p.shadow {
				return k.AttachShadow(NewModelShadow("d/a", p.m1, diffModel(int64(y), 3)))
			}
			k.DetachShadow("d/a")
			return nil
		})
	case 27:
		// An engine that panics for a few fires of one hook: with a sentinel
		// attached the tier is demoted, without one the breaker sees traps.
		hook := diffHooks[int(y)%2]
		if err := p.both(func(k *Kernel) error {
			k.SetFaultInjector(fault.NewInjector(int64(y), fault.Rule{Target: hook, Kind: fault.KindEnginePanic, Count: 4}))
			return nil
		}); err != nil {
			return err
		}
		for i := byte(0); i < 6; i++ {
			if err := p.fire(y%2, y+i); err != nil {
				return err
			}
		}
		return p.both(func(k *Kernel) error { k.SetFaultInjector(nil); return nil })
	case 28:
		id := p.progs[int(y)%len(p.progs)]
		tn := []string{"", "ta", "tb"}[int(y/8)%3]
		return p.both(func(k *Kernel) error {
			if sup := k.TenantSupervisor(tn); sup != nil {
				if y >= 128 {
					sup.Trip(id)
				} else {
					sup.Reinstate(id)
				}
			}
			return nil
		})
	case 29:
		id := p.progs[int(y)%len(p.progs)]
		tier := EngineTier(int(y/8) % int(TierJIT)) // baseline or interp
		return p.both(func(k *Kernel) error {
			k.RestoreEngineQuarantine(p.hash(k, id), tier)
			return nil
		})
	case 30:
		pat := []string{"d/*", "h"}[int(y)%2]
		return p.both(func(k *Kernel) error {
			k.RegisterFallback(pat, diffFallbacks[int(y/2)%2])
			return nil
		})
	case 31:
		p.tc = !p.tc
		return p.both(func(k *Kernel) error {
			if p.tc {
				return k.RegisterTenant("tc", TenantQuota{})
			}
			return k.RemoveTenant("tc")
		})
	default:
		return p.both(func(k *Kernel) error {
			k.RegisterVec([]int64{int64(y)})
			return nil
		})
	}
}

// step runs one schedule step: all but one in thirty-two fire, so that flows
// are revisited between commits and the cache has something to get wrong.
func (p *diffPair) step(op, x, y byte) error {
	switch {
	case op%32 < 16:
		return p.fire(x, y)
	case op%32 < 23:
		return p.fireBatch(x, y)
	case op%32 < 31:
		return p.fireTenant(x, y)
	}
	if p.omit != "flush" {
		return p.mutate(x, y)
	}
	// Blind to the flush counter: whatever the mutator advanced is put back.
	k := p.ks[0]
	before := map[*tenantState]uint64{k.def: k.def.flush.Load()}
	for _, ts := range *k.tdir.Load() {
		before[ts] = ts.flush.Load()
	}
	err := p.mutate(x, y)
	for ts, f := range before {
		ts.flush.Store(f)
	}
	return err
}

// runDiffSchedule drives a fresh pair through the schedule (three bytes a
// step) and returns the first disagreement, with the pair for its counts.
func runDiffSchedule(data []byte, omit string) (*diffPair, error) {
	p, err := newDiffPair(omit)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	for i := 0; i+3 <= len(data); i += 3 {
		if err := p.step(data[i], data[i+1], data[i+2]); err != nil {
			return p, fmt.Errorf("step %d (%d,%d,%d): %w", i/3, data[i], data[i+1], data[i+2], err)
		}
	}
	return p, nil
}

func diffSchedule(seed int64, steps int) []byte {
	data := make([]byte, 3*steps)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// TestScopedInvalidationDifferential: 12 000 steps a seed, every fire
// compared. The hit count shows the schedule does exercise the cache.
func TestScopedInvalidationDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		p, err := runDiffSchedule(diffSchedule(seed, 12000), "")
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if p.fires < 10000 || p.hits*5 < p.fires {
			t.Fatalf("seed %d: %d cache hits in %d fires: the schedule no longer exercises the cache", seed, p.hits, p.fires)
		}
		_, why := p.ks[0].def.cacheStats()
		if why.Flush == 0 || why.Hook == 0 || why.Table == 0 || why.Model == 0 {
			t.Fatalf("seed %d: an invalidation reason never occurred: %+v", seed, why)
		}
	}
}

// TestScopedInvalidationCatchesEachOmission is the mutation check of the test
// above: with the cached kernel made blind to any one component of the stamp,
// the same schedule must find a wrong verdict.
func TestScopedInvalidationCatchesEachOmission(t *testing.T) {
	for _, omit := range []string{"flush", "epoch", "table", "entry", "dep"} {
		caught := false
		for _, seed := range []int64{1, 2, 3} {
			if _, err := runDiffSchedule(diffSchedule(seed, 12000), omit); err != nil {
				t.Logf("without %s, seed %d: %v", omit, seed, err)
				caught = true
				break
			}
		}
		if !caught {
			t.Errorf("a verdict cache that ignores %s passes the differential schedule", omit)
		}
	}
}

// FuzzScopedInvalidation lets the fuzzer write the schedule.
func FuzzScopedInvalidation(f *testing.F) {
	f.Add(diffSchedule(1, 100))
	f.Add(diffSchedule(7, 100))
	// warm a flow, then one of each mutator, each followed by that flow.
	var each []byte
	for m := byte(0); m < 32; m++ {
		each = append(each, 0, 0, 1, 0, 0, 1, 0, 0, 1, 31, m, 9, 0, 0, 1, 0, 0, 1)
	}
	f.Add(each)
	// flow (d/a, 1) warmed, then each entry-liveness step on its table, each
	// followed by that flow: delete and reinsert the same pointer, the same
	// with fires between.
	entry := []byte{0, 0, 1, 0, 0, 1, 0, 0, 1}
	for _, m := range [][2]byte{{2, 8}, {2, 12}} {
		entry = append(entry, 31, m[0], m[1], 0, 0, 1, 0, 0, 1, 0, 0, 1)
	}
	f.Add(entry)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*2000 {
			data = data[:3*2000]
		}
		if _, err := runDiffSchedule(data, ""); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCachedFireHoldsNoRoutePointer: a cached verdict must not pin a route
// snapshot (it names its program by id and resolves it in the replaying
// fire's snapshot). The only pointers it may hold are into the table layer.
func TestCachedFireHoldsNoRoutePointer(t *testing.T) {
	allowed := map[reflect.Type]bool{
		reflect.TypeOf((*table.Table)(nil)): true,
		reflect.TypeOf((*table.Entry)(nil)): true,
	}
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Pointer, reflect.Map, reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
			if !allowed[ty] {
				t.Errorf("cachedFire%s is a %s: cached verdicts may point only at tables and entries", path, ty)
			}
		case reflect.Slice, reflect.Array:
			walk(ty.Elem(), path+"[]")
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		}
	}
	walk(reflect.TypeOf(cachedFire{}), "")
}

// raceKernel builds the fixture of the ordering tests: hook r/h over one exact
// table whose keys 0..3 run a constant program (the mutator retargets them
// between +100 and +200), whose keys 4..7 run a program inferring through
// model m (the mutator swaps it between slopes 2 and 5) and whose keys 8..11
// run the constant program too (retargeted one by one, each checked at
// once); r/f is a foreign hook.
type raceKernel struct {
	k            *Kernel
	tab, foreign *table.Table
	m            int64
	progA, progB int64
}

func newRaceKernel(t *testing.T, cached bool) *raceKernel {
	t.Helper()
	rk := &raceKernel{k: NewKernel(Config{DisableVerdictCache: !cached})}
	k := rk.k
	rk.m = k.RegisterModel(diffModel(2, 0))
	install := func(p *isa.Program) int64 {
		id, _, err := k.InstallProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	rk.progA = install(diffConstProg("a", "r/h", 100))
	rk.progB = install(diffConstProg("b", "r/h", 200))
	infer := install(diffInferProg("infer", "r/h", rk.m))
	rk.tab = table.New("rtab", "r/h", table.MatchExact)
	rk.foreign = table.New("ftab", "r/f", table.MatchExact)
	for _, tb := range []*table.Table{rk.tab, rk.foreign} {
		if _, err := k.CreateTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	for key := uint64(0); key < 12; key++ {
		id := rk.progA
		if key >= 4 && key < 8 {
			id = infer
		}
		if err := rk.tab.Insert(&table.Entry{Key: key, Action: table.Action{Kind: table.ActionProgram, ProgID: id}}); err != nil {
			t.Fatal(err)
		}
	}
	return rk
}

// mutate applies step i of the writer's rotation.
func (rk *raceKernel) mutate(t *testing.T, i int) {
	switch i % 3 {
	case 0:
		id := rk.progA
		if (i/3)%2 == 1 {
			id = rk.progB
		}
		rk.tab.UpdateAction(uint64(i/3)%4, table.Action{Kind: table.ActionProgram, ProgID: id})
	case 1:
		if err := rk.k.SwapModel(rk.m, diffModel(2+3*int64((i/3)%2), 0)); err != nil {
			t.Error(err)
		}
	default:
		if err := rk.foreign.Insert(&table.Entry{Key: uint64(i), Action: table.Action{Kind: table.ActionParam, Param: int64(i)}}); err != nil {
			t.Error(err)
		}
		if i%30 == 2 {
			if _, err := rk.k.RegisterMatrix(&Matrix{In: 1, Out: 1, W: []int64{1}, B: []int64{0}}); err != nil {
				t.Error(err)
			}
		}
	}
}

// TestScopedInvalidationRace (run it with -race): four goroutines FireBatch
// one hook while a writer retargets entries, swaps the model and commits to a
// foreign hook, retargets keys 8..11 one UpdateAction at a time, and cycles
// the table's default (program B, program A, none) under keys 12..15, which
// have no entry. Every verdict of an installed key is one of the two it can
// have; the model is part of the snapshot a batch loads once, so all
// inferring fires of a batch agree on its slope (entry edits are live, as
// ever: a lookup after the edit sees it, mid-batch or not); once an
// UpdateAction or SetDefault has returned, a fire of its key never replays
// the verdict of the entry it displaced, however hot the readers keep it; and
// once the writers stop, the next two fires of every flow equal an uncached
// kernel's that took the same commits.
func TestScopedInvalidationRace(t *testing.T) {
	cached, oracle := newRaceKernel(t, true), newRaceKernel(t, false)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			evs := make([]Event, 32)
			out := make([]FireResult, len(evs))
			for i := range evs {
				evs[i] = Event{Hook: "r/h", Key: int64((i + g) % 16), Arg2: 1, Arg3: 3}
			}
			for !stop.Load() {
				cached.k.FireBatch(evs, out)
				slope := int64(0)
				for i, res := range out {
					key := evs[i].Key
					if key >= 12 {
						continue // the default's; checked by the writer
					}
					if key < 4 || key >= 8 {
						if v := res.Verdict - key - 1; v != 100 && v != 200 {
							t.Errorf("key %d: verdict %d is neither program's", key, res.Verdict)
							return
						}
						continue
					}
					s := (res.Verdict - 3) / key
					if (s != 2 && s != 5) || res.Verdict != s*key+3 {
						t.Errorf("key %d: verdict %d is neither model's", key, res.Verdict)
						return
					}
					if slope != 0 && s != slope {
						t.Errorf("one batch inferred through both models: slopes %d and %d", slope, s)
						return
					}
					slope = s
				}
			}
		}(g)
	}
	for i := 0; i < 600; i++ {
		cached.mutate(t, i)
		oracle.mutate(t, i)
		// Retarget one of keys 8..11, flipping each key every round so that
		// every update moves its verdict, and fire it the moment the update
		// has returned.
		key, id, c := int64(8+i%4), cached.progB, int64(200)
		if (i/4)%2 == 1 {
			id, c = cached.progA, 100
		}
		cached.tab.UpdateAction(uint64(key), table.Action{Kind: table.ActionProgram, ProgID: id})
		oracle.tab.UpdateAction(uint64(key), table.Action{Kind: table.ActionProgram, ProgID: id})
		if res := cached.k.Fire("r/h", key, 1, 3); res.Verdict != key+1+c {
			t.Errorf("key %d after its UpdateAction to +%d returned: %+v", key, c, res)
		}
		// Cycle the default that keys 12..15 fall to, and fire one of them the
		// moment the change has returned.
		var deflt *table.Action
		if d := i % 3; d < 2 {
			id := cached.progB
			if d == 1 {
				id = cached.progA
			}
			deflt = &table.Action{Kind: table.ActionProgram, ProgID: id}
		}
		cached.tab.SetDefault(deflt)
		oracle.tab.SetDefault(deflt)
		miss := int64(12 + i%4)
		if got, want := cached.k.Fire("r/h", miss, 1, 3), oracle.k.Fire("r/h", miss, 1, 3); got.Verdict != want.Verdict {
			t.Errorf("key %d after SetDefault(%v) returned: %+v, uncached %+v", miss, deflt, got, want)
		}
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	for key := int64(0); key < 16; key++ {
		want := oracle.k.Fire("r/h", key, 1, 3)
		for n := 0; n < 2; n++ {
			if got := cached.k.Fire("r/h", key, 1, 3); got.Verdict != want.Verdict || got.Steps != want.Steps {
				t.Errorf("key %d, fire %d after the writer stopped: %+v, uncached %+v", key, n+1, got, want)
			}
		}
	}
}

// TestBatchKeepsItsSnapshotAcrossSwap: a batch that loaded its snapshot before
// a SwapModel keeps replaying, and recording, under the dep that snapshot
// carries — and nothing it stored is served from the snapshot after it.
func TestBatchKeepsItsSnapshotAcrossSwap(t *testing.T) {
	rk := newRaceKernel(t, true)
	k := rk.k
	fire := func(key int64) FireResult { return k.Fire("r/h", key, 1, 3) }
	for i := 0; i < 3; i++ {
		fire(4)
	}
	if res := fire(4); !res.CacheHit || res.Verdict != 2*4+3 {
		t.Fatalf("flow 4 not cached under the first model: %+v", res)
	}
	ev := func(key int64) Event { return Event{Hook: "r/h", Key: key, Arg2: 1, Arg3: 3} }
	swap := ev(5)
	swap.Prep = func() {
		if err := k.SwapModel(rk.m, diffModel(5, 0)); err != nil {
			t.Error(err)
		}
	}
	// 4 replays; the swap lands; 4 still replays; 6 is new to the cache and is
	// fingerprinted, stored and replayed, all inside the batch.
	evs := []Event{ev(4), swap, ev(4), ev(6), ev(6), ev(6)}
	out := make([]FireResult, len(evs))
	k.FireBatch(evs, out)
	for i, res := range out {
		if want := 2*evs[i].Key + 3; res.Verdict != want {
			t.Errorf("batch event %d (key %d): verdict %d, want the batch's own model's %d", i, evs[i].Key, res.Verdict, want)
		}
	}
	if !out[0].CacheHit || !out[2].CacheHit || !out[5].CacheHit {
		t.Errorf("batch hits = %v %v %v, want replays before the swap, after it, and of the flow stored after it",
			out[0].CacheHit, out[2].CacheHit, out[5].CacheHit)
	}
	for _, key := range []int64{4, 6} {
		if res := fire(key); res.CacheHit || res.Verdict != 5*key+3 {
			t.Errorf("key %d after the batch: %+v, want a miss under the new model", key, res)
		}
	}
	if st, why := k.def.cacheStats(); why.Model != 2 || st.Invalidations != 2 {
		t.Errorf("invalidations = %d, split %+v; want the two stored under the old dep, by model", st.Invalidations, why)
	}
}

// TestInvalidationReasonsReported: the registry snapshot and TenantStatus say
// why cached verdicts died, one counter per stamp component, summing to the
// invalidations line they split.
func TestInvalidationReasonsReported(t *testing.T) {
	rk := newRaceKernel(t, true)
	k := rk.k
	warm := func() {
		for i := 0; i < 3; i++ {
			for key := int64(0); key < 8; key++ {
				k.Fire("r/h", key, 1, 3)
			}
		}
	}
	warm()
	rk.tab.UpdateAction(0, table.Action{Kind: table.ActionProgram, ProgID: rk.progB})
	warm() // key 0's entry was replaced: the one flow that matched it
	if err := k.SwapModel(rk.m, diffModel(5, 0)); err != nil {
		t.Fatal(err)
	}
	warm() // 4 flows run the program declaring the model
	if _, err := k.CreateTable(table.New("rtab2", "r/h", table.MatchExact)); err != nil {
		t.Fatal(err)
	}
	warm() // the pipeline grew: all 8
	k.SetMode(ModeInterp)
	warm() // everything is afresh: all 8

	st, err := k.TenantStatus("")
	if err != nil {
		t.Fatal(err)
	}
	if want := (StaleCounts{Flush: 8, Hook: 8, Table: 1, Model: 4}); st.Invalidated != want || st.VerdictCache.Invalidations != 21 {
		t.Fatalf("TenantStatus: %d invalidations split %+v, want 21 as %+v", st.VerdictCache.Invalidations, st.Invalidated, want)
	}
	got := map[string]bool{}
	for _, line := range k.Metrics.Snapshot() {
		got[line] = true
	}
	for _, line := range []string{
		"core.verdict_cache.invalidations 21",
		"core.verdict_cache.invalidations.flush 8",
		"core.verdict_cache.invalidations.hook 8",
		"core.verdict_cache.invalidations.table 1",
		"core.verdict_cache.invalidations.model 4",
	} {
		if !got[line] {
			t.Errorf("registry snapshot lacks %q", line)
		}
	}
}

// TestRegistrationLeavesPublishedSnapshotsAlone: route snapshots share the
// matrix, vector and helper registries instead of cloning them, so a
// registration must replace a registry, never write it. Readers of an old
// snapshot run beside the registrations (go test -race watches the maps);
// afterwards the old snapshot still lacks what was registered and the new one
// has it.
func TestRegistrationLeavesPublishedSnapshotsAlone(t *testing.T) {
	k := NewKernel(Config{})
	old := k.def.route.Load()
	const helperID = HelperUserBase + 7
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = old.mats[1], old.vecs[1]
				_ = old.helpers[helperID]
				for range old.helpers {
				}
			}
		}()
	}
	mid, err := k.RegisterMatrix(&Matrix{In: 1, Out: 1, W: []int64{1}, B: []int64{0}})
	if err != nil {
		t.Fatal(err)
	}
	vid := k.RegisterVec([]int64{1, 2})
	if err := k.RegisterHelper(helperID, verifier.HelperSpec{Name: "noop", Cost: 1},
		func(*Kernel, *Invocation, *[5]int64) (int64, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if _, ok := old.mats[mid]; ok {
		t.Error("matrix registered after the publish shows in the old snapshot")
	}
	if _, ok := old.vecs[vid]; ok {
		t.Error("vector registered after the publish shows in the old snapshot")
	}
	if _, ok := old.helpers[helperID]; ok {
		t.Error("helper registered after the publish shows in the old snapshot")
	}
	now := k.def.route.Load()
	if now.mats[mid] == nil || now.vecs[vid] == nil {
		t.Errorf("new snapshot lacks matrix %d or vector %d", mid, vid)
	}
	if _, ok := now.helpers[helperID]; !ok {
		t.Error("new snapshot lacks the helper")
	}
}
