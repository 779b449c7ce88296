package dp

// The budget view the accounting tests read.

// Remaining reports the unspent epsilon.
func (a *Accountant) Remaining() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return epsilonOf(a.budget)
}
