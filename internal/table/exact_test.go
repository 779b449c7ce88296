package table

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// mapTable is an exact table as a map under one mutex: the reference the
// in-place index is compared against. It keeps the table's liveness rules —
// a mutator retires the entry it displaces and revives the one it stores —
// on its own entries, and bumps its version once per mutator call.
type mapTable struct {
	mu      sync.Mutex
	m       map[uint64]*Entry
	deflt   *Entry
	version uint64
}

func newMapTable() *mapTable { return &mapTable{m: map[uint64]*Entry{}} }

// set makes e (nil: none) key's entry and settles liveness.
func (r *mapTable) set(key uint64, e *Entry) (old *Entry) {
	old = r.m[key]
	if e == nil {
		delete(r.m, key)
	} else {
		r.m[key] = e
	}
	r.version++
	if old != e {
		if old != nil {
			old.retired.Store(true)
		}
		if e != nil {
			e.retired.Store(false)
		}
	}
	return old
}

func (r *mapTable) Insert(e *Entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.set(e.Key, e)
}

func (r *mapTable) Delete(key uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[key]; !ok {
		r.version++
		return false
	}
	r.set(key, nil)
	return true
}

func (r *mapTable) UpdateAction(key uint64, a Action) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.m[key]
	if !ok {
		r.version++
		return false
	}
	c := e.clone()
	c.Action = a
	r.set(key, c)
	return true
}

func (r *mapTable) SetDefault(a *Action) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.deflt != nil {
		r.deflt.retired.Store(true)
	}
	r.deflt = nil
	if a != nil {
		r.deflt = &Entry{Action: *a}
	}
	r.version++
}

func (r *mapTable) Probe(key uint64) *Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m[key]
}

func (r *mapTable) LookupMatch(key uint64) (*Entry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.m[key]; e != nil {
		return e, true
	}
	return r.deflt, false
}

func (r *mapTable) Entries() []*Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Entry, 0, len(r.m))
	for _, e := range r.m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// exactSchedule is one differential run: how many distinct keys it draws
// from, and three bytes per operation (opcode, key, parameter).
type exactSchedule struct {
	keys int
	ops  []byte
}

// decodeExactSchedule reads a schedule from a byte string: one header byte
// picks a key space of 3, 12, 40 or 200 keys (small ones churn tombstones
// through same-size rebuilds, large ones grow the index), the rest are
// operations.
func decodeExactSchedule(data []byte) exactSchedule {
	if len(data) == 0 {
		return exactSchedule{keys: 3}
	}
	return exactSchedule{keys: []int{3, 12, 40, 200}[int(data[0])%4], ops: data[1:]}
}

// scheduleKey spreads key indexes over the whole word, zero included: odd
// indexes below 256 become keys that differ only in their top byte.
func scheduleKey(i int) uint64 {
	if i%2 == 1 {
		return bits.RotateLeft64(uint64(i), 56)
	}
	return uint64(i) * 0x1000
}

// exactPairs tracks which of the table's entries stands for which of the
// reference's: the two sides never share an entry, since each keeps its own
// liveness flag.
type exactPairs struct {
	twin   map[*Entry]*Entry // table entry -> reference entry
	pairs  [][2]*Entry
	deflts map[*Entry]bool // table entries that were a default, never an exact row
}

// match checks that g and w stand for each other (pairing them on first
// sight) and agree in action.
func (p *exactPairs) match(g, w *Entry) error {
	if (g == nil) != (w == nil) {
		return fmt.Errorf("table %v, reference %v", g, w)
	}
	if g == nil {
		return nil
	}
	if tw, ok := p.twin[g]; ok {
		if tw != w {
			return fmt.Errorf("table returned the twin of another reference entry (key %#x)", g.Key)
		}
	} else {
		p.twin[g] = w
		p.pairs = append(p.pairs, [2]*Entry{g, w})
	}
	if g.Key != w.Key || g.Action != w.Action {
		return fmt.Errorf("table entry {%#x %+v}, reference {%#x %+v}", g.Key, g.Action, w.Key, w.Action)
	}
	return nil
}

// checkIndex checks the index's own invariants: at most half used, its
// counts equal to its slots, one slot per key, and never sparse (a delete
// that leaves it so rebuilds it smaller).
func checkIndex(t *Table) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	x := t.snap.Load().exact
	live, tombs := 0, 0
	seen := map[uint64]bool{}
	for i := range x.slots {
		switch e := x.slots[i].Load(); {
		case e == &x.tomb:
			tombs++
		case e != nil:
			if seen[e.Key] {
				return fmt.Errorf("key %#x is in two slots", e.Key)
			}
			seen[e.Key] = true
			live++
		}
	}
	if int64(live) != t.exactLen.Load() || tombs != t.exactTombs {
		return fmt.Errorf("slots hold %d entries and %d tombstones, counted %d and %d", live, tombs, t.exactLen.Load(), t.exactTombs)
	}
	if 2*(live+tombs) > len(x.slots) {
		return fmt.Errorf("%d entries and %d tombstones in %d slots", live, tombs, len(x.slots))
	}
	if x.sparse(live) {
		return fmt.Errorf("%d entries hold %d slots", live, len(x.slots))
	}
	return nil
}

// runExactSchedule drives an exact Table and the map reference through sc
// and returns the first difference: in a return value, in any entry's
// liveness, in Version, Len or Entries, which it compares after every
// operation.
func runExactSchedule(sc exactSchedule) error {
	got, want := New("t", "h", MatchExact), newMapTable()
	p := exactPairs{twin: map[*Entry]*Entry{}, deflts: map[*Entry]bool{}}
	for n := 0; n+3 <= len(sc.ops); n += 3 {
		b := sc.ops[n : n+3]
		k := scheduleKey(int(b[1]) % sc.keys)
		act := Action{Kind: ActionParam, Param: int64(b[2])}
		var what string
		var err error
		switch op := b[0] % 16; {
		case op < 4:
			what = "Insert"
			g, w := &Entry{Key: k, Action: act}, &Entry{Key: k, Action: act}
			if e := got.Insert(g); e != nil {
				return e
			}
			want.Insert(w)
			err = p.match(g, w)
		case op == 4 && len(p.pairs) > 0: // a Txn rollback: a displaced entry goes back
			what = "Insert(earlier entry)"
			pr := p.pairs[int(b[2])%len(p.pairs)]
			if p.deflts[pr[0]] {
				break
			}
			k = pr[0].Key
			if e := got.Insert(pr[0]); e != nil {
				return e
			}
			want.Insert(pr[1])
		case op < 7:
			what = "Delete"
			if g, w := got.Delete(&Entry{Key: k}), want.Delete(k); g != w {
				err = fmt.Errorf("removed %v, reference %v", g, w)
			}
		case op < 10:
			what = "UpdateAction"
			if g, w := got.UpdateAction(k, act), want.UpdateAction(k, act); g != w {
				err = fmt.Errorf("updated %v, reference %v", g, w)
			}
		case op == 10:
			what = "SetDefault"
			if b[2]%4 == 0 {
				got.SetDefault(nil)
				want.SetDefault(nil)
			} else {
				got.SetDefault(&act)
				want.SetDefault(&act)
			}
		case op == 11:
			what = "Probe"
			err = p.match(got.Probe(k), want.Probe(k))
		default:
			what = "LookupMatch"
			g, gm := got.LookupMatch(k)
			w, wm := want.LookupMatch(k)
			if gm != wm {
				err = fmt.Errorf("matched %v, reference %v", gm, wm)
			} else {
				err = p.match(g, w)
			}
		}
		if err == nil {
			err = compareExact(got, want, &p)
		}
		if err != nil {
			return fmt.Errorf("op %d: %s(key %#x): %v", n/3, what, k, err)
		}
	}
	return nil
}

// compareExact compares everything observable of the two tables at rest.
func compareExact(got *Table, want *mapTable, p *exactPairs) error {
	if err := p.match(got.Default(), want.deflt); err != nil {
		return fmt.Errorf("default: %v", err)
	}
	if d := got.Default(); d != nil {
		p.deflts[d] = true
	}
	ge, we := got.Entries(), want.Entries()
	if len(ge) != len(we) || got.Len() != len(we) {
		return fmt.Errorf("Entries has %d, Len %d, reference %d", len(ge), got.Len(), len(we))
	}
	for i := range ge {
		if err := p.match(ge[i], we[i]); err != nil {
			return fmt.Errorf("Entries[%d]: %v", i, err)
		}
	}
	for _, pr := range p.pairs {
		if pr[0].Live() != pr[1].Live() {
			return fmt.Errorf("entry %#x: live %v, reference %v", pr[0].Key, pr[0].Live(), pr[1].Live())
		}
	}
	if got.Version() != want.version {
		return fmt.Errorf("Version %d, reference %d", got.Version(), want.version)
	}
	return checkIndex(got)
}

func seededExactSchedule(seed int64, keys byte, n int) []byte {
	data := make([]byte, 1+3*n)
	rand.New(rand.NewSource(seed)).Read(data)
	data[0] = keys
	return data
}

// bulkDeleteSchedule fills the 200-key space, deletes all but five keys, then
// fills it again: growth, shrinking rebuilds on the way down, growth again.
func bulkDeleteSchedule() []byte {
	data := []byte{3}
	for _, op := range []struct{ code, from, to byte }{{0, 0, 200}, {5, 5, 200}, {0, 0, 200}} {
		for k := int(op.from); k < int(op.to); k++ {
			data = append(data, op.code, byte(k), byte(k))
		}
	}
	return data
}

// TestExactTableMatchesMapReference: on any single-threaded sequence of
// table calls the in-place index returns what a map under a mutex returns,
// with the same liveness and Version after every operation.
func TestExactTableMatchesMapReference(t *testing.T) {
	seeds := 600
	if testing.Short() {
		seeds = 100
	}
	for seed := 0; seed < seeds; seed++ {
		data := seededExactSchedule(int64(seed), byte(seed%4), 150)
		if err := runExactSchedule(decodeExactSchedule(data)); err != nil {
			t.Fatalf("seed %d (%d keys): %v", seed, decodeExactSchedule(data).keys, err)
		}
	}
	// Long runs: growth through several sizes, then tombstone churn.
	for keys := byte(0); keys < 4; keys++ {
		data := seededExactSchedule(int64(100+keys), keys, 2000)
		if err := runExactSchedule(decodeExactSchedule(data)); err != nil {
			t.Fatalf("long run (%d keys): %v", decodeExactSchedule(data).keys, err)
		}
	}
	if err := runExactSchedule(decodeExactSchedule(bulkDeleteSchedule())); err != nil {
		t.Fatalf("bulk delete: %v", err)
	}
}

// FuzzExactTableDifferential is the same comparison over fuzzer-chosen
// schedules.
func FuzzExactTableDifferential(f *testing.F) {
	f.Add([]byte{0})
	f.Add(seededExactSchedule(1, 0, 60))
	f.Add(seededExactSchedule(2, 1, 100))
	f.Add(seededExactSchedule(3, 3, 100))
	f.Add(bulkDeleteSchedule())
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := runExactSchedule(decodeExactSchedule(data)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestExactIndexReadersVersusWriters (run under -race): readers look keys up
// without a lock while a writer inserts and deletes through several growth
// and tombstone rebuilds and updates the keys that stay. A key present
// throughout is never missed, and every entry a lookup returns carries the
// probed key. The writer starts once every reader has matched a stable key,
// so a loaded machine cannot run the whole write loop before any lookup.
func TestExactIndexReadersVersusWriters(t *testing.T) {
	const (
		stable    = 64
		churn     = 2048
		writerOps = 20000
	)
	tb := New("t", "h", MatchExact)
	for i := 0; i < stable; i++ {
		if err := tb.Insert(&Entry{Key: scheduleKey(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var readers, warm sync.WaitGroup
	var done atomic.Bool
	var found atomic.Int64
	for r := 0; r < 4; r++ {
		readers.Add(1)
		warm.Add(1)
		go func(seed int64) {
			defer readers.Done()
			warmed := false
			defer func() {
				if !warmed { // a reader that failed early must not stall the writer
					warm.Done()
				}
			}()
			rng := rand.New(rand.NewSource(seed))
			var mine int64
			for !done.Load() {
				i := rng.Intn(stable + churn)
				k := scheduleKey(i)
				e, matched := tb.LookupMatch(k)
				if p := tb.Probe(k); p != nil && p.Key != k {
					t.Errorf("Probe(%#x) returned the entry of key %#x", k, p.Key)
					return
				}
				switch {
				case matched && e.Key != k:
					t.Errorf("LookupMatch(%#x) returned the entry of key %#x", k, e.Key)
					return
				case !matched && i < stable:
					t.Errorf("LookupMatch(%#x) missed a key present throughout", k)
					return
				case matched:
					mine++
					if !warmed && i < stable {
						warmed = true
						warm.Done()
					}
				}
			}
			found.Add(mine)
		}(int64(r))
	}
	warm.Wait()
	rng := rand.New(rand.NewSource(99))
	indexes := map[*exactIndex]bool{}
	for n := 0; n < writerOps; n++ {
		k := scheduleKey(stable + rng.Intn(churn))
		switch op := rng.Intn(100); {
		case op < 10:
			tb.UpdateAction(scheduleKey(rng.Intn(stable)), Action{Kind: ActionParam, Param: int64(n)})
		case op < 55:
			if err := tb.Insert(&Entry{Key: k}); err != nil {
				t.Fatal(err)
			}
		default:
			tb.Delete(&Entry{Key: k})
		}
		indexes[tb.snap.Load().exact] = true
	}
	done.Store(true)
	readers.Wait()
	if len(indexes) < 5 || found.Load() == 0 {
		t.Fatalf("%d indexes published, %d lookups matched; want several rebuilds and hits", len(indexes), found.Load())
	}
	if err := checkIndex(tb); err != nil {
		t.Fatal(err)
	}
}

// TestExactEntriesIsASnapshot (run under -race): Entries returns a state the
// table held, although single-key edits store into the index in place. A
// writer deletes and re-inserts one key, which moves it to a later slot, and
// updates the other keys in ascending order, one round at a time, until the
// readers have made enough calls. Every Entries call must list each key once
// and show a prefix of the keys at one round and the rest at the round
// before.
func TestExactEntriesIsASnapshot(t *testing.T) {
	const keys, minRounds, minWalks = 64, 300, 200
	tb := New("t", "h", MatchExact)
	for k := uint64(0); k <= keys; k++ {
		if err := tb.Insert(&Entry{Key: k}); err != nil {
			t.Fatal(err)
		}
	}
	var readers sync.WaitGroup
	var done atomic.Bool
	var walks atomic.Int64
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !done.Load() {
				es := tb.Entries()
				walks.Add(1)
				if err := checkRounds(es, keys); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for r := int64(1); r <= minRounds || walks.Load() < minWalks && !t.Failed(); r++ {
		for k := uint64(0); k < keys; k++ {
			tb.UpdateAction(k, Action{Kind: ActionParam, Param: r})
			if k%8 == 0 {
				tb.Delete(&Entry{Key: keys})
				if err := tb.Insert(&Entry{Key: keys}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	done.Store(true)
	readers.Wait()
}

// checkRounds checks one Entries result of TestExactEntriesIsASnapshot.
func checkRounds(es []*Entry, keys uint64) error {
	var prev *Entry
	for _, e := range es {
		switch {
		case prev != nil && e.Key == prev.Key:
			return fmt.Errorf("Entries lists key %d twice", e.Key)
		case e.Key == keys:
		case prev != nil && (e.Action.Param > prev.Action.Param || e.Action.Param < prev.Action.Param-1):
			return fmt.Errorf("Entries shows key %d at round %d after key %d at round %d", e.Key, e.Action.Param, prev.Key, prev.Action.Param)
		}
		if e.Key != keys {
			prev = e
		}
	}
	if n := len(es); n < int(keys) || n > int(keys)+1 {
		return fmt.Errorf("Entries lists %d entries of a table of %d or %d", n, keys, keys+1)
	}
	return nil
}
