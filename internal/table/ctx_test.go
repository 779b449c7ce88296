package table

import (
	"sync"
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
