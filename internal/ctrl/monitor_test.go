package ctrl

import "testing"

// TestMonitorNeverDegradeSentinel: Threshold == 0 must be preserved (not
// coerced to 0.5) and must never count a degraded window, even for all-miss
// windows.
func TestMonitorNeverDegradeSentinel(t *testing.T) {
	m := NewAccuracyMonitor(4, 0)
	if m.Threshold != 0 {
		t.Fatalf("threshold 0 coerced to %v; want sentinel preserved", m.Threshold)
	}
	for i := 0; i < 64; i++ {
		m.Record(false) // every window is 0.0 accuracy
	}
	if m.Degrades() != 0 {
		t.Fatalf("threshold-0 monitor degraded %d times; want never", m.Degrades())
	}
}

// TestMonitorNegativeThresholdDefaults: the old <=0 default now only applies
// to negative values.
func TestMonitorNegativeThresholdDefaults(t *testing.T) {
	if m := NewAccuracyMonitor(0, -1); m.Threshold != 0.5 || m.Window != 256 {
		t.Fatalf("defaults: got window=%d threshold=%v, want 256/0.5", m.Window, m.Threshold)
	}
}

// TestMonitorPartialWindow: before the first window completes, no window is
// judged, no matter how the partial window looks.
func TestMonitorPartialWindow(t *testing.T) {
	m := NewAccuracyMonitor(8, 0.5)
	for i := 0; i < 7; i++ {
		m.Record(false) // 7 straight misses: still no completed window
		if m.Degrades() != 0 {
			t.Fatal("a partial window was judged degraded")
		}
	}
	// The eighth outcome closes the window.
	m.Record(false)
	if m.Degrades() != 1 {
		t.Fatalf("boundary: degrades = %d, want 1", m.Degrades())
	}
}

// TestMonitorThresholdBoundary: degrade is strictly below the threshold — a
// window landing exactly on it does not count.
func TestMonitorThresholdBoundary(t *testing.T) {
	m := NewAccuracyMonitor(4, 0.5)
	window := func(hits int) {
		for i := 0; i < 4; i++ {
			m.Record(i < hits)
		}
	}
	window(2) // exactly 0.5: not a degrade
	if m.Degrades() != 0 {
		t.Fatalf("exact-threshold window degraded: degrades = %d", m.Degrades())
	}
	window(1) // 0.25 < 0.5: degrade
	if m.Degrades() != 1 {
		t.Fatalf("below-threshold window: degrades = %d", m.Degrades())
	}
	window(2) // exactly 0.5 again
	window(4)
	if m.Degrades() != 1 {
		t.Fatalf("at-or-above-threshold windows degraded: degrades = %d", m.Degrades())
	}
}
