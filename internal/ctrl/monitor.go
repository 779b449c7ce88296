package ctrl

import "sync"

// AccuracyMonitor tracks a model's windowed prediction accuracy and counts
// the windows in which it degraded — the signal of §3.1's control-plane loop:
// "if the prefetching accuracy falls below a threshold, the control plane
// will recompute ML decisions to be more conservative in prefetching, and
// reconfigure the RMT tables to reflect the workload changes".
type AccuracyMonitor struct {
	// Window is the number of outcomes per evaluation window.
	Window int
	// Threshold is the accuracy below which a window counts as degraded.
	// Exactly 0 is the "never degrade" sentinel: window accuracy can never
	// be < 0, so the monitor only accumulates statistics. (Degradation at
	// literally-zero accuracy is indistinguishable from "off": a window with
	// any hits is above 0, and a window with none compares 0 < 0, false.)
	Threshold float64

	mu       sync.Mutex
	hits     int
	total    int
	degrades int
}

// NewAccuracyMonitor creates a monitor; window <=0 selects 256. threshold <0
// selects 0.5; exactly 0 is kept as the documented "never degrade" sentinel.
func NewAccuracyMonitor(window int, threshold float64) *AccuracyMonitor {
	if window <= 0 {
		window = 256
	}
	if threshold < 0 {
		threshold = 0.5
	}
	return &AccuracyMonitor{Window: window, Threshold: threshold}
}

// Record feeds one prediction outcome. At each window boundary the window's
// accuracy is evaluated against Threshold.
func (m *AccuracyMonitor) Record(correct bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.total++
	if correct {
		m.hits++
	}
	if m.total >= m.Window {
		if float64(m.hits)/float64(m.total) < m.Threshold {
			m.degrades++
		}
		m.hits, m.total = 0, 0
	}
}

// Degrades reports how many windows fell below the threshold.
func (m *AccuracyMonitor) Degrades() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.degrades
}
