package dp

// The budget views the accounting tests read.

// Remaining reports the unspent epsilon.
func (a *Accountant) Remaining() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return epsilonOf(a.budget)
}

// Spent reports total epsilon consumed so far.
func (a *Accountant) Spent() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return epsilonOf(a.total - a.budget)
}

// SpentBy reports epsilon consumed by a given table/query name.
func (a *Accountant) SpentBy(table string) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return epsilonOf(a.spends[table])
}
