package table

// The cache flush the flow-cache tests and the differential fuzzer drive.

// Reset drops every cached entry (counted as evictions). Fingerprints stay:
// a flow seen before Reset is still a flow that recurs.
func (c *FlowCache[V]) Reset() {
	if c == nil {
		return
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		if t := s.tab.Load(); t != nil {
			s.evictions.Add(int64(s.live))
			s.tab.Store(newFlowTable[V](len(t.slots)))
			s.live, s.tombs = 0, 0
		}
		s.mu.Unlock()
	}
}
