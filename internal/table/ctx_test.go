package table

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestCtxFields(t *testing.T) {
	c := NewCtxStore(4, 8)
	if got := c.Load(1, 0); got != 0 {
		t.Fatalf("missing key reads %d", got)
	}
	c.Store(1, 2, 42)
	if got := c.Load(1, 2); got != 42 {
		t.Fatalf("load = %d", got)
	}
	// Out-of-range fields are ignored / read zero.
	c.Store(1, 99, 1)
	if got := c.Load(1, 99); got != 0 {
		t.Fatalf("oob field = %d", got)
	}
	c.Store(1, -1, 1)
	if got := c.Load(1, -1); got != 0 {
		t.Fatalf("negative field = %d", got)
	}
	if got := c.Add(1, 2, -2); got != 40 {
		t.Fatalf("add = %d", got)
	}
	if c.NumFields() != 4 || c.HistCap() != 8 {
		t.Fatal("config accessors wrong")
	}
}

func TestCtxHistRing(t *testing.T) {
	c := NewCtxStore(1, 4)
	for i := int64(1); i <= 6; i++ {
		c.HistPush(7, i)
	}
	// Capacity 4: should hold 3,4,5,6 oldest-first.
	buf := make([]int64, 10)
	n := c.Hist(7, buf)
	if n != 4 {
		t.Fatalf("n = %d", n)
	}
	want := []int64{3, 4, 5, 6}
	for i, w := range want {
		if buf[i] != w {
			t.Fatalf("hist = %v, want %v", buf[:n], want)
		}
	}
	// Partial window: last two.
	n = c.Hist(7, buf[:2])
	if n != 2 || buf[0] != 5 || buf[1] != 6 {
		t.Fatalf("partial hist = %v", buf[:n])
	}
	if c.HistLen(7) != 4 {
		t.Fatalf("histlen = %d", c.HistLen(7))
	}
	if c.HistLen(99) != 0 {
		t.Fatal("missing key has history")
	}
}

// TestCtxHistPushesNeverFalls: the push count goes on past the ring's
// capacity, survives a Drop (a key's new record counts on from the dropped
// one's), and a key that never pushed reads its shard's floor.
func TestCtxHistPushesNeverFalls(t *testing.T) {
	c := NewCtxStore(1, 4)
	if got := c.HistPushes(7); got != 0 {
		t.Fatalf("fresh key: %d pushes", got)
	}
	for i := int64(1); i <= 6; i++ {
		c.HistPush(7, i)
	}
	if got := c.HistPushes(7); got != 6 {
		t.Fatalf("%d pushes after 6 into a ring of 4", got)
	}
	c.Drop(7)
	if got := c.HistPushes(7); got != 6 {
		t.Fatalf("dropped key: %d pushes, want 6", got)
	}
	c.HistPush(7, 1)
	if got, n := c.HistPushes(7), c.HistLen(7); got != 7 || n != 1 {
		t.Fatalf("after a drop and one push: %d pushes, %d values; want 7, 1", got, n)
	}
}

// TestCtxHistProperty checks ring semantics against a reference slice.
func TestCtxHistProperty(t *testing.T) {
	f := func(vals []int64, capSel uint8) bool {
		capacity := int(capSel%16) + 1
		c := NewCtxStore(0, capacity)
		var ref []int64
		for _, v := range vals {
			c.HistPush(3, v)
			ref = append(ref, v)
			if len(ref) > capacity {
				ref = ref[1:]
			}
		}
		buf := make([]int64, capacity)
		n := c.Hist(3, buf)
		if n != len(ref) {
			return false
		}
		for i := range ref {
			if buf[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCtxKeysDropLen(t *testing.T) {
	c := NewCtxStore(2, 4)
	c.Store(3, 0, 1)
	c.Store(1, 0, 1)
	c.Store(2, 0, 1)
	keys := c.Keys()
	if len(keys) != 3 || keys[0] != 1 || keys[2] != 3 {
		t.Fatalf("keys = %v", keys)
	}
	c.Drop(2)
	if c.Len() != 2 {
		t.Fatalf("len after drop = %d", c.Len())
	}
}

func TestCtxSumField(t *testing.T) {
	c := NewCtxStore(2, 4)
	c.Store(1, 0, 10)
	c.Store(2, 0, 20)
	c.Store(3, 1, 99)
	sum, count := c.SumField(0)
	if sum != 30 || count != 3 {
		t.Fatalf("sum=%d count=%d", sum, count)
	}
	if s, n := c.SumField(7); s != 0 || n != 0 {
		t.Fatal("oob field sum should be empty")
	}
}

func TestCtxConcurrent(t *testing.T) {
	c := NewCtxStore(2, 32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int64) {
			defer wg.Done()
			for i := int64(0); i < 1000; i++ {
				c.HistPush(g, i)
				c.Add(g, 0, 1)
				_ = c.Load(g, 0)
			}
		}(int64(g))
	}
	wg.Wait()
	for g := int64(0); g < 8; g++ {
		if got := c.Load(g, 0); got != 1000 {
			t.Fatalf("key %d count = %d", g, got)
		}
		if c.HistLen(g) != 32 {
			t.Fatalf("key %d histlen = %d", g, c.HistLen(g))
		}
	}
}

// refCtx is the context store as a map under one mutex: the specification
// FuzzCtxStoreDifferential holds CtxStore to. A key's push count after a Drop
// counts on from the largest count dropped in the key's shard, so the
// reference keeps that floor by the store's shard of the key.
type refCtx struct {
	mu        sync.Mutex
	numFields int
	histCap   int
	recs      map[int64]*refRec
	dropped   map[int]uint64
}

type refRec struct {
	fields []int64
	hist   []int64 // the last histCap values pushed, oldest first
	pushes uint64
}

func newRefCtx(numFields, histCap int) *refCtx {
	return &refCtx{numFields: numFields, histCap: histCap, recs: map[int64]*refRec{}, dropped: map[int]uint64{}}
}

func refShard(key int64) int { return int((uint64(key) * 0x9E3779B97F4A7C15) >> 60) }

func (c *refCtx) rec(key int64) *refRec {
	r := c.recs[key]
	if r == nil {
		r = &refRec{fields: make([]int64, c.numFields), pushes: c.dropped[refShard(key)]}
		c.recs[key] = r
	}
	return r
}

func (c *refCtx) valid(field int64) bool { return field >= 0 && field < int64(c.numFields) }

func (c *refCtx) load(key, field int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r := c.recs[key]; r != nil && c.valid(field) {
		return r.fields[field]
	}
	return 0
}

func (c *refCtx) store(key, field, val int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.valid(field) {
		c.rec(key).fields[field] = val
	}
}

func (c *refCtx) add(key, field, delta int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.valid(field) {
		return 0
	}
	r := c.rec(key)
	r.fields[field] += delta
	return r.fields[field]
}

func (c *refCtx) push(key, v int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.rec(key)
	r.hist = append(r.hist, v)
	if len(r.hist) > c.histCap {
		r.hist = r.hist[1:]
	}
	r.pushes++
}

func (c *refCtx) histWindow(key int64, n int) []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.recs[key]
	if r == nil {
		return nil
	}
	return slices.Clone(r.hist[len(r.hist)-min(n, len(r.hist)):])
}

func (c *refCtx) histLen(key int64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r := c.recs[key]; r != nil {
		return len(r.hist)
	}
	return 0
}

func (c *refCtx) histPushes(key int64) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r := c.recs[key]; r != nil {
		return r.pushes
	}
	return c.dropped[refShard(key)]
}

func (c *refCtx) drop(key int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r := c.recs[key]; r != nil {
		s := refShard(key)
		c.dropped[s] = max(c.dropped[s], r.pushes)
		delete(c.recs, key)
	}
}

func (c *refCtx) keys() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int64
	for k := range c.recs {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

func (c *refCtx) sumField(field int64) (int64, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.valid(field) {
		return 0, 0
	}
	var sum int64
	for _, r := range c.recs {
		sum += r.fields[field]
	}
	return sum, len(c.recs)
}

// runCtxSchedule decodes data into a context-store configuration and a call
// sequence, makes every call on a CtxStore and on the reference, and returns
// the first answer that differs. The first byte picks 0..3 fields and a
// history of 1..4 values; each following 4 bytes are one call: the
// operation, a key among -2..2, a field among -(n+1)..n+1 for n fields, so a
// third of them or more are out of range, and a value, which also sizes a
// Hist read (0..9 values). One operation holds a record across a Drop of its
// key and writes through it: those writes are lost, and the reference makes
// none of them.
func runCtxSchedule(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	nf, hc := int(data[0]%4), int(data[0]/4%4)+1
	c, ref := NewCtxStore(nf, hc), newRefCtx(nf, hc)
	dst := make([]int64, 10)
	for i := 1; i+4 <= len(data); i += 4 {
		op, key := data[i]%12, int64(data[i+1]%5)-2
		field := int64(int8(data[i+2])) % int64(nf+2)
		val := int64(int8(data[i+3])) * 1_000_003
		call := fmt.Sprintf("call %d: op %d key %d field %d val %d", i/4, op, key, field, val)
		switch op {
		case 0:
			if got, want := c.Load(key, field), ref.load(key, field); got != want {
				return fmt.Errorf("%s: Load %d, reference %d", call, got, want)
			}
		case 1:
			c.Store(key, field, val)
			ref.store(key, field, val)
		case 2:
			if got, want := c.Add(key, field, val), ref.add(key, field, val); got != want {
				return fmt.Errorf("%s: Add %d, reference %d", call, got, want)
			}
		case 3, 4:
			c.HistPush(key, val)
			ref.push(key, val)
		case 5:
			n := int(data[i+3] % 10)
			got := dst[:c.Hist(key, dst[:n])]
			if want := ref.histWindow(key, n); !slices.Equal(got, want) {
				return fmt.Errorf("%s: Hist %v, reference %v", call, got, want)
			}
		case 6:
			if got, want := c.HistLen(key), ref.histLen(key); got != want {
				return fmt.Errorf("%s: HistLen %d, reference %d", call, got, want)
			}
		case 7:
			if got, want := c.HistPushes(key), ref.histPushes(key); got != want {
				return fmt.Errorf("%s: HistPushes %d, reference %d", call, got, want)
			}
		case 8:
			c.Drop(key)
			ref.drop(key)
		case 9:
			if got, want := c.Keys(), ref.keys(); !slices.Equal(got, want) {
				return fmt.Errorf("%s: Keys %v, reference %v", call, got, want)
			}
			if got, want := c.Len(), len(ref.keys()); got != want {
				return fmt.Errorf("%s: Len %d, reference %d", call, got, want)
			}
		case 10:
			gs, gn := c.SumField(field)
			ws, wn := ref.sumField(field)
			if gs != ws || gn != wn {
				return fmt.Errorf("%s: SumField %d over %d, reference %d over %d", call, gs, gn, ws, wn)
			}
		case 11:
			r := c.Rec(key)
			ref.rec(key)
			c.Drop(key)
			ref.drop(key)
			r.Store(field, val)
			r.Add(field, val)
			r.HistPush(val)
		}
	}
	return nil
}

// seededCtxSchedule returns a configuration byte and n random calls.
func seededCtxSchedule(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 1+4*n)
	rng.Read(data)
	return data
}

// FuzzCtxStoreDifferential holds CtxStore to the map-under-mutex reference
// over random call sequences on a few keys, with tiny history rings and
// out-of-range fields.
func FuzzCtxStoreDifferential(f *testing.F) {
	f.Add([]byte{0})
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seededCtxSchedule(seed, 300))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := runCtxSchedule(data); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCtxReadersVersusWriters (run under -race): each writer pushes 1, 2, 3,
// ... to its key's history and stores the same count in a field, while
// readers read the history (through the store and through a held record),
// its length, its push count and the field. A history read is a run of
// consecutive values ending at most at the push count read after it, and no
// count a reader reads ever falls.
func TestCtxReadersVersusWriters(t *testing.T) {
	const (
		keys    = 2
		pushes  = 20000
		histCap = 16
	)
	c := NewCtxStore(2, histCap)
	var writers, readers sync.WaitGroup
	var done atomic.Bool
	for k := int64(0); k < keys; k++ {
		writers.Add(1)
		go func(key int64) {
			defer writers.Done()
			for v := int64(1); v <= pushes; v++ {
				c.HistPush(key, v)
				c.Store(key, 0, v)
				c.Add(key, 1, 1)
			}
		}(k)
	}
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			key := int64(g % keys)
			var lastPushes uint64
			var lastField, lastAdd, lastNewest int64
			dst := make([]int64, 1+g*5)
			for !done.Load() {
				var n int
				if g%2 == 0 {
					n = c.Hist(key, dst)
				} else {
					n = c.Find(key).Hist(dst)
				}
				w := dst[:n]
				p := c.HistPushes(key)
				hl := c.HistLen(key)
				f, a := c.Load(key, 0), c.Load(key, 1)
				for i := 1; i < len(w); i++ {
					if w[i] != w[i-1]+1 {
						errs <- fmt.Errorf("reader %d: window %v is not a run", g, w)
						return
					}
				}
				if n > 0 && (uint64(w[n-1]) > p || w[n-1] < lastNewest) {
					errs <- fmt.Errorf("reader %d: newest %d after %d, push count %d", g, w[n-1], lastNewest, p)
					return
				}
				if p < lastPushes || f < lastField || a < lastAdd || hl > histCap {
					errs <- fmt.Errorf("reader %d: pushes %d after %d, field %d after %d, adds %d after %d, length %d",
						g, p, lastPushes, f, lastField, a, lastAdd, hl)
					return
				}
				if n > 0 {
					lastNewest = w[n-1]
				}
				lastPushes, lastField, lastAdd = p, f, a
			}
		}(g)
	}
	writers.Wait()
	done.Store(true)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for k := int64(0); k < keys; k++ {
		if p, l, f, a := c.HistPushes(k), c.HistLen(k), c.Load(k, 0), c.Load(k, 1); p != pushes || l != histCap || f != pushes || a != pushes {
			t.Fatalf("key %d: pushes %d, length %d, field %d, adds %d", k, p, l, f, a)
		}
	}
}
