package qos

import (
	"errors"
	"testing"
)

func TestValidName(t *testing.T) {
	if err := ValidName("acme"); err != nil {
		t.Fatalf("ValidName(acme): %v", err)
	}
	if err := ValidName(""); !errors.Is(err, ErrInvalidTenant) {
		t.Fatalf("empty name: got %v, want ErrInvalidTenant", err)
	}
	if err := ValidName("a:b"); !errors.Is(err, ErrInvalidTenant) {
		t.Fatalf("name with separator: got %v, want ErrInvalidTenant", err)
	}
}

func TestBucketRefillDeterminism(t *testing.T) {
	run := func() []bool {
		b := NewBucket(1000, 4, 0) // 1 token/ms, burst 4
		var out []bool
		for now := int64(0); now < 20_000_000; now += 250_000 { // every 0.25ms
			out = append(out, b.Take(now))
		}
		return out
	}
	a, bb := run(), run()
	for i := range a {
		if a[i] != bb[i] {
			t.Fatalf("nondeterministic bucket at step %d", i)
		}
	}
	// Burst drains first, then exactly 1 admit per 4 steps (1ms).
	admits := 0
	for _, ok := range a[4:] {
		if ok {
			admits++
		}
	}
	want := 19 // ~one per ms over the remaining ~19.75ms, tokens were pre-drained
	if admits < want-1 || admits > want+1 {
		t.Fatalf("steady-state admits = %d, want ~%d", admits, want)
	}
}

func TestBucketZeroRateNeverAdmits(t *testing.T) {
	b := NewBucket(0, 0, 0)
	for now := int64(0); now < 1e9; now += 1e6 {
		if b.Take(now) {
			t.Fatal("zero-rate bucket admitted a fire")
		}
	}
}

func TestBucketSetRateClampsTokens(t *testing.T) {
	b := NewBucket(1000, 100, 0)
	if got := b.tokensNs / 1e9; got != 100 {
		t.Fatalf("initial tokens = %d, want 100", got)
	}
	b.SetRate(10, 2, 0)
	if got := b.tokensNs / 1e9; got != 2 {
		t.Fatalf("tokens after shrink = %d, want 2 (clamped to new burst)", got)
	}
}

func TestWFQWeightedFairness(t *testing.T) {
	q := NewWFQ[int](0)
	// Two backlogged burstable tenants, weights 3:1.
	for i := 0; i < 400; i++ {
		if err := q.Add("heavy", Burstable, 3, i); err != nil {
			t.Fatal(err)
		}
		if err := q.Add("light", Burstable, 1, i); err != nil {
			t.Fatal(err)
		}
	}
	counts := map[string]int{}
	for i := 0; i < 400; i++ {
		_, tenant, ok := q.Next()
		if !ok {
			t.Fatal("queue drained early")
		}
		counts[tenant]++
	}
	ratio := float64(counts["heavy"]) / float64(counts["light"])
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("service ratio heavy:light = %.2f (%v), want ~3", ratio, counts)
	}
}

func TestWFQStrictPriorityBands(t *testing.T) {
	q := NewWFQ[string](0)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(q.Add("be", BestEffort, 1, "be1"))
	must(q.Add("bu", Burstable, 1, "bu1"))
	must(q.Add("g", Guaranteed, 1, "g1"))
	must(q.Add("g", Guaranteed, 1, "g2"))
	var order []string
	for {
		item, _, ok := q.Next()
		if !ok {
			break
		}
		order = append(order, item)
	}
	want := []string{"g1", "g2", "bu1", "be1"}
	if len(order) != len(want) {
		t.Fatalf("drained %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("drain order %v, want %v", order, want)
		}
	}
}

func TestWFQOverflowSheds(t *testing.T) {
	q := NewWFQ[int](2)
	if err := q.Add("t", BestEffort, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := q.Add("t", BestEffort, 1, 2); err != nil {
		t.Fatal(err)
	}
	err := q.Add("t", BestEffort, 1, 3)
	if !errors.Is(err, ErrAdmissionShed) || !errors.Is(err, ErrQueueOverflow) {
		t.Fatalf("overflow error = %v, want ErrAdmissionShed+ErrQueueOverflow", err)
	}
	if q.TenantLen("t") != 2 {
		t.Fatalf("queue depth %d after shed, want 2", q.TenantLen("t"))
	}
}

func TestWFQDrop(t *testing.T) {
	q := NewWFQ[int](0)
	for i := 0; i < 5; i++ {
		if err := q.Add("t", Burstable, 1, i); err != nil {
			t.Fatal(err)
		}
	}
	if n := q.Drop("t"); n != 5 {
		t.Fatalf("Drop = %d, want 5", n)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drop, want 0", q.Len())
	}
	if _, _, ok := q.Next(); ok {
		t.Fatal("Next returned an item after Drop")
	}
}

// driveWindow offers n fires for tenant spread over one window, then ticks
// the controller into the next window so the load EWMA absorbs them.
func driveWindow(c *Controller, tenant string, n int, winStart, winNs int64) []Verdict {
	var out []Verdict
	for i := 0; i < n; i++ {
		now := winStart + int64(i)*winNs/int64(n)
		out = append(out, c.Admit(tenant, now))
	}
	return out
}

func TestControllerClassLadderUnderOverload(t *testing.T) {
	const winNs = 1_000_000
	cfg := Config{CapacityPerSec: 1000, WindowNs: winNs} // 1 fire per window
	c := NewController(cfg, 0)
	c.SetTenant(TenantSpec{Name: "g", Class: Guaranteed, RatePerSec: 500, Burst: 1}, 0)
	c.SetTenant(TenantSpec{Name: "bu", Class: Burstable, RatePerSec: 100, Burst: 1}, 0)
	c.SetTenant(TenantSpec{Name: "be", Class: BestEffort}, 0)

	// Saturate: 20 fires per window for several windows drives load >> 1x.
	for w := int64(0); w < 10; w++ {
		driveWindow(c, "be", 20, w*winNs, winNs)
	}
	if load := c.LoadMilli(); load <= 1000 {
		t.Fatalf("LoadMilli = %d after saturation, want > 1000", load)
	}

	// Best-effort sheds under overload.
	verdicts := driveWindow(c, "be", 10, 10*winNs, winNs)
	sheds := 0
	for _, v := range verdicts {
		if v == Shed {
			sheds++
		}
	}
	if sheds == 0 {
		t.Fatalf("best-effort verdicts under overload = %v, want sheds", verdicts)
	}

	// Guaranteed within quota admits even under overload; never sheds.
	for w := int64(11); w < 14; w++ {
		for _, v := range driveWindow(c, "g", 20, w*winNs, winNs) {
			if v == Shed {
				t.Fatal("guaranteed fire was shed")
			}
		}
	}
	st := statsFor(t, c, "g")
	if st.Admitted == 0 {
		t.Fatalf("guaranteed admitted = 0 under overload: %+v", st)
	}

	// Burstable over quota in the moderate-overload band (1x..ShedMilli)
	// degrades; past the shed threshold it sheds. Fresh controller so the
	// EWMA sits in the degrade band.
	c2 := NewController(cfg, 0)
	c2.SetTenant(TenantSpec{Name: "bu", Class: Burstable, RatePerSec: 100, Burst: 1}, 0)
	var sawDegrade bool
	for w := int64(0); w < 8; w++ {
		for _, v := range driveWindow(c2, "bu", 2, w*winNs, winNs) { // ~2x capacity
			if v == Degrade {
				sawDegrade = true
			}
			if v == Shed {
				t.Fatalf("burstable shed at moderate overload (load=%d)", c2.LoadMilli())
			}
		}
	}
	if !sawDegrade {
		t.Fatalf("burstable never degraded under moderate overload: %+v", statsFor(t, c2, "bu"))
	}
}

func TestControllerUnderloadAdmitsEverything(t *testing.T) {
	cfg := Config{CapacityPerSec: 1_000_000, WindowNs: 1_000_000}
	c := NewController(cfg, 0)
	c.SetTenant(TenantSpec{Name: "be", Class: BestEffort}, 0)
	for i := int64(0); i < 100; i++ {
		if v := c.Admit("be", i*10_000_000); v != Admit {
			t.Fatalf("fire %d: verdict %v under light load, want admit", i, v)
		}
	}
}

func TestControllerUnknownTenantPassesThrough(t *testing.T) {
	c := NewController(Config{}, 0)
	if v := c.Admit("nobody", 0); v != Admit {
		t.Fatalf("unknown tenant verdict = %v, want admit", v)
	}
}

func statsFor(t *testing.T, c *Controller, name string) TenantStats {
	t.Helper()
	for _, st := range c.Stats() {
		if st.Name == name {
			return st
		}
	}
	t.Fatalf("no stats for %q", name)
	return TenantStats{}
}

// TestWFQClassChangeMovesBands: a queued tenant whose class changes must
// carry its rotation element into the new band. Leaving the element behind
// strands it in a list t.class no longer names, so a later Drop removes
// nothing: the queue length goes negative and "dropped" items are still
// served.
func TestWFQClassChangeMovesBands(t *testing.T) {
	q := NewWFQ[int](0)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(q.Add("t", BestEffort, 1, 1))
	must(q.Add("t", Guaranteed, 1, 2)) // class change while queued
	must(q.Add("other", Burstable, 1, 3))
	// t drains from the guaranteed band now, ahead of burstable "other".
	if item, tenant, ok := q.Next(); !ok || tenant != "t" || item != 1 {
		t.Fatalf("Next = %d/%q/%v, want 1/t", item, tenant, ok)
	}
	if n := q.Drop("t"); n != 1 {
		t.Fatalf("Drop = %d, want 1", n)
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d after Drop, want 1 (other's item)", q.Len())
	}
	if item, tenant, ok := q.Next(); !ok || tenant != "other" || item != 3 {
		t.Fatalf("Next = %d/%q/%v, want 3/other", item, tenant, ok)
	}
	if item, tenant, ok := q.Next(); ok {
		t.Fatalf("dropped item %d/%q served after Drop", item, tenant)
	}
}

// TestControllerIdleGapClosesInConstantTime: an idle gap of arbitrary length
// must close in O(1). A year at the 1ms default is ~3e10 windows — a
// per-window loop would wedge this test — and after it the EWMA is fully
// decayed.
func TestControllerIdleGapClosesInConstantTime(t *testing.T) {
	const winNs = 1_000_000
	cfg := Config{CapacityPerSec: 1000, WindowNs: winNs}
	c := NewController(cfg, 0)
	c.SetTenant(TenantSpec{Name: "be", Class: BestEffort}, 0)
	for w := int64(0); w < 10; w++ {
		driveWindow(c, "be", 20, w*winNs, winNs)
	}
	if load := c.LoadMilli(); load <= 1000 {
		t.Fatalf("LoadMilli = %d after saturation, want > 1000", load)
	}
	year := int64(365) * 24 * 3600 * 1_000_000_000
	if v := c.Admit("be", 10*winNs+year); v != Admit {
		t.Fatalf("verdict after idle year = %v, want admit", v)
	}
	if load := c.LoadMilli(); load != 0 {
		t.Fatalf("LoadMilli = %d after idle year, want 0", load)
	}
}

// TestControllerLargeWindowNoOverflow: CapacityPerSec × WindowNs past int64
// must not corrupt the load estimate — the per-window capacity is computed in
// split precision instead of multiplying the raw product.
func TestControllerLargeWindowNoOverflow(t *testing.T) {
	cfg := Config{CapacityPerSec: 2_000_000_000, WindowNs: 5_000_000_000}
	c := NewController(cfg, 0)
	c.SetTenant(TenantSpec{Name: "be", Class: BestEffort}, 0)
	for i := int64(0); i < 100; i++ {
		if v := c.Admit("be", i); v != Admit {
			t.Fatalf("fire %d: verdict %v, want admit (capacity is 1e10/window)", i, v)
		}
	}
	c.Admit("be", cfg.WindowNs) // closes the first window
	if load := c.LoadMilli(); load != 0 {
		t.Fatalf("LoadMilli = %d, want 0 (100 fires against 1e10/window)", load)
	}
}
