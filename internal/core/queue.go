package core

import (
	"fmt"
	"sync"

	"rmtk/internal/qos"
)

// FireQueue is a weighted-fair scheduler over queued tenant fires: events are
// admitted (and possibly degraded or shed) at enqueue time, then drained in
// qos.WFQ order — strict priority across QoS classes, deficit-round-robin
// across tenants within a class. Backlogged tenants therefore share drain
// bandwidth in proportion to their quota weights, and a chatty best-effort
// tenant cannot starve a guaranteed one.
type FireQueue struct {
	k  *Kernel
	mu sync.Mutex
	q  *qos.WFQ[queuedFire]
}

// queuedFire is one admitted event with its admission verdict resolved.
type queuedFire struct {
	ev      Event
	degrade bool
}

// NewFireQueue builds a fire queue bounding each tenant's backlog at
// maxPerTenant (<=0 selects 1024).
func (k *Kernel) NewFireQueue(maxPerTenant int) *FireQueue {
	return &FireQueue{k: k, q: qos.NewWFQ[queuedFire](maxPerTenant)}
}

// Enqueue admits one tenant event into the queue. The admission ladder runs
// here — a shed verdict (or a full tenant queue) returns a typed
// ErrAdmissionShed immediately; a degrade verdict is recorded on the item and
// honored at drain. The overflow check precedes the admission call and both
// run under the queue lock, so a fire shed on tenant-queue backlog never
// consumes a token or counts as admitted — draining never re-consults
// admission either, so a served fire is charged against its tenant's bucket
// exactly once.
func (q *FireQueue) Enqueue(tenant string, ev Event) error {
	ts := q.k.tenant(tenant)
	if ts == nil {
		return fmt.Errorf("%w: %q", qos.ErrTenantUnknown, tenant)
	}
	item := queuedFire{ev: ev}
	q.mu.Lock()
	if q.q.Full(tenant) {
		q.mu.Unlock()
		ts.markShed()
		q.k.Metrics.Counter("core.admission_shed").Inc()
		return fmt.Errorf("%w: %w: tenant %q at %q", qos.ErrAdmissionShed, qos.ErrQueueOverflow, tenant, ev.Hook)
	}
	if a := q.k.adm.Load(); a != nil && tenant != "" {
		switch a.ctl.Admit(tenant, a.now()) {
		case qos.Shed:
			q.mu.Unlock()
			ts.markShed()
			q.k.Metrics.Counter("core.admission_shed").Inc()
			return fmt.Errorf("%w: tenant %q at %q", qos.ErrAdmissionShed, tenant, ev.Hook)
		case qos.Degrade:
			item.degrade = true
		}
	}
	class := qos.Class(ts.qclass.Load())
	weight := int(ts.qweight.Load())
	err := q.q.Add(tenant, class, weight, item)
	q.mu.Unlock()
	if err != nil {
		ts.markShed()
		q.k.Metrics.Counter("core.admission_shed").Inc()
	}
	return err
}

// Drain pops up to max queued fires in weighted-fair order and executes each
// against its tenant's current snapshot, writing results into out. It returns
// how many fires ran (less than max when the queue empties). Fires of tenants
// torn down while queued are dropped silently.
func (q *FireQueue) Drain(max int, out []FireResult) int {
	if max > len(out) {
		max = len(out)
	}
	n := 0
	d := dispatch{k: q.k} // one scratch draw across the drain; books settle per tenant run
	defer d.release()
	for n < max {
		q.mu.Lock()
		item, tenant, ok := q.q.Next()
		q.mu.Unlock()
		if !ok {
			break
		}
		ts := q.k.tenant(tenant)
		if ts == nil {
			continue
		}
		if item.degrade {
			ts.markDegraded()
			out[n] = q.k.fireDegraded(ts, item.ev.Hook, item.ev.Key, item.ev.Arg2, item.ev.Arg3)
			n++
			continue
		}
		if item.ev.Prep != nil {
			item.ev.Prep()
		}
		ts.markFire()
		d.begin(ts)
		out[n] = FireResult{Verdict: DefaultVerdict}
		d.fire(item.ev.Hook, item.ev.Key, item.ev.Arg2, item.ev.Arg3, &out[n])
		n++
	}
	return n
}

// Len reports the total queued fires.
func (q *FireQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.q.Len()
}

// TenantLen reports one tenant's backlog.
func (q *FireQueue) TenantLen(tenant string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.q.TenantLen(tenant)
}

// DropTenant discards a tenant's backlog (teardown), returning the count.
func (q *FireQueue) DropTenant(tenant string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.q.Drop(tenant)
}
