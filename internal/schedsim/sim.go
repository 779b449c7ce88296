package schedsim

import (
	"container/heap"
	"fmt"
	"math/rand"
)

// TaskSpec describes one task of a workload phase.
type TaskSpec struct {
	// Work is the CPU time the task needs, in ticks.
	Work int64
	// Weight is the load weight (CFS nice-derived). <=0 selects 1024.
	Weight int64
	// SpawnOffset delays the task's arrival relative to its phase start.
	SpawnOffset int64
	// SleepEvery/SleepTicks make the task IO-bound: after running
	// SleepEvery ticks it sleeps for SleepTicks. Zero means pure CPU.
	SleepEvery int64
	SleepTicks int64
	// PID groups tasks into processes (for per-application context).
	PID int64
}

// Workload is a named sequence of barrier-separated phases.
type Workload struct {
	Name   string
	Phases [][]TaskSpec
}

// TotalWork sums the work of all tasks across phases.
func (w *Workload) TotalWork() int64 {
	var sum int64
	for _, ph := range w.Phases {
		for _, t := range ph {
			sum += t.Work
		}
	}
	return sum
}

// Config parameterizes the simulator.
type Config struct {
	// CPUs is the processor count. <=0 selects 8.
	CPUs int
	// TickNs converts ticks to time. <=0 selects 1e6 (1ms ticks).
	TickNs int64
	// BalanceInterval is the periodic load-balance period in ticks. <=0
	// selects 4.
	BalanceInterval int64
	// CacheRefillTicks is added to a cache-hot task's remaining work when
	// it migrates (the locality cost that makes migration a real
	// trade-off). <0 selects 2.
	CacheRefillTicks int64
	// MaxTicks aborts runaway simulations. <=0 selects 10_000_000.
	MaxTicks int64
	// Seed drives spawn placement tie-breaking.
	Seed int64
	// CollectDecisions records every can_migrate_task consultation.
	CollectDecisions bool
}

func (c Config) withDefaults() Config {
	if c.CPUs <= 0 {
		c.CPUs = 8
	}
	if c.TickNs <= 0 {
		c.TickNs = 1e6
	}
	if c.BalanceInterval <= 0 {
		c.BalanceInterval = 4
	}
	if c.CacheRefillTicks < 0 {
		c.CacheRefillTicks = 2
	}
	if c.MaxTicks <= 0 {
		c.MaxTicks = 10_000_000
	}
	return c
}

// Decision is one recorded can_migrate_task consultation: the feature vector
// and the decider's verdict (1 = migrate).
type Decision struct {
	X []int64
	Y int64
}

// Result summarizes a run.
type Result struct {
	Policy     string
	Workload   string
	Ticks      int64 // makespan
	Migrations int64
	Decisions  int64
	SumJCT     int64 // sum over tasks of (finish - spawn)
	Tasks      int64
	Log        []Decision // populated when Config.CollectDecisions
}

// JCTSeconds is the makespan in seconds (what Table 2 reports).
func (r Result) JCTSeconds(tickNs int64) float64 {
	return float64(r.Ticks) * float64(tickNs) / 1e9
}

// MeanTaskJCT is the mean per-task completion time in ticks.
func (r Result) MeanTaskJCT() float64 {
	if r.Tasks == 0 {
		return 0
	}
	return float64(r.SumJCT) / float64(r.Tasks)
}

func (r Result) String() string {
	return fmt.Sprintf("%s/%s: makespan=%d ticks, migrations=%d, decisions=%d, meanJCT=%.0f",
		r.Workload, r.Policy, r.Ticks, r.Migrations, r.Decisions, r.MeanTaskJCT())
}

type taskState int

const (
	stateRunnable taskState = iota
	stateSleeping
	stateDone
)

type task struct {
	spec      TaskSpec
	remaining int64
	vruntime  int64
	state     taskState

	cpu           int // current queue
	preferred     int
	spawnedAt     int64
	finishedAt    int64
	lastRanAt     int64
	lastRanOn     int
	lastMigrated  int64
	migrations    int64
	totalRun      int64
	waitSince     int64
	sleepUntil    int64
	ranSinceSleep int64
	sleepTotal    int64
	sleepCount    int64

	heapIdx int
}

// runqueue is a min-heap on vruntime.
type runqueue struct {
	tasks []*task
	load  int64 // sum of weights (runnable, including running)
}

func (q *runqueue) Len() int           { return len(q.tasks) }
func (q *runqueue) Less(i, j int) bool { return q.tasks[i].vruntime < q.tasks[j].vruntime }
func (q *runqueue) Swap(i, j int) {
	q.tasks[i], q.tasks[j] = q.tasks[j], q.tasks[i]
	q.tasks[i].heapIdx = i
	q.tasks[j].heapIdx = j
}
func (q *runqueue) Push(x any) {
	t := x.(*task)
	t.heapIdx = len(q.tasks)
	q.tasks = append(q.tasks, t)
}
func (q *runqueue) Pop() any {
	t := q.tasks[len(q.tasks)-1]
	q.tasks = q.tasks[:len(q.tasks)-1]
	return t
}

func (q *runqueue) minVruntime() int64 {
	if len(q.tasks) == 0 {
		return 0
	}
	return q.tasks[0].vruntime
}

// Sim runs one workload under one decider.
type Sim struct {
	cfg     Config
	wl      *Workload
	decider Decider
	rng     *rand.Rand

	tick     int64
	queues   []*runqueue
	sleeping []*task
	pending  []*task // spawned later in the current phase
	alive    int     // unfinished tasks in current phase

	res Result
}

// NewSim prepares a simulation.
func NewSim(cfg Config, wl *Workload, decider Decider) *Sim {
	cfg = cfg.withDefaults()
	s := &Sim{
		cfg:     cfg,
		wl:      wl,
		decider: decider,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		res:     Result{Policy: decider.Name(), Workload: wl.Name},
	}
	s.queues = make([]*runqueue, cfg.CPUs)
	for i := range s.queues {
		s.queues[i] = &runqueue{}
	}
	return s
}

// Run executes the workload to completion (or MaxTicks) and returns metrics.
func Run(cfg Config, wl *Workload, decider Decider) Result {
	s := NewSim(cfg, wl, decider)
	for _, phase := range wl.Phases {
		s.startPhase(phase)
		for s.alive > 0 && s.tick < s.cfg.MaxTicks {
			s.step()
		}
	}
	s.res.Ticks = s.tick
	return s.res
}

func (s *Sim) startPhase(specs []TaskSpec) {
	for i, spec := range specs {
		if spec.Weight <= 0 {
			spec.Weight = 1024
		}
		t := &task{
			spec:      spec,
			remaining: spec.Work,
			preferred: i % s.cfg.CPUs,
			spawnedAt: s.tick + spec.SpawnOffset,
			lastRanOn: -1,
		}
		s.alive++
		if spec.SpawnOffset == 0 {
			s.place(t)
		} else {
			s.pending = append(s.pending, t)
		}
	}
}

// place enqueues a newly arrived task on the least-loaded CPU (wake
// balancing).
func (s *Sim) place(t *task) {
	best := 0
	for c := 1; c < len(s.queues); c++ {
		if s.queues[c].load < s.queues[best].load {
			best = c
		}
	}
	t.cpu = best
	t.vruntime = s.queues[best].minVruntime()
	t.waitSince = s.tick
	t.state = stateRunnable
	s.queues[best].load += t.spec.Weight
	heap.Push(s.queues[best], t)
}

func (s *Sim) step() {
	// Arrivals.
	if len(s.pending) > 0 {
		kept := s.pending[:0]
		for _, t := range s.pending {
			if t.spawnedAt <= s.tick {
				s.place(t)
			} else {
				kept = append(kept, t)
			}
		}
		s.pending = kept
	}
	// Wakeups.
	if len(s.sleeping) > 0 {
		kept := s.sleeping[:0]
		for _, t := range s.sleeping {
			if t.sleepUntil <= s.tick {
				s.place(t)
			} else {
				kept = append(kept, t)
			}
		}
		s.sleeping = kept
	}

	// Each CPU runs its min-vruntime task for one tick.
	for c, q := range s.queues {
		if q.Len() == 0 {
			// New-idle balancing: an idling CPU immediately tries to pull
			// work, the path where decision quality matters most.
			s.balance(c)
			if q.Len() == 0 {
				continue
			}
		}
		t := q.tasks[0]
		t.totalRun++
		t.remaining--
		t.lastRanAt = s.tick
		t.lastRanOn = c
		t.ranSinceSleep++
		t.vruntime += 1024 * 1024 / t.spec.Weight
		heap.Fix(q, 0)

		switch {
		case t.remaining <= 0:
			s.remove(t, q)
			t.state = stateDone
			t.finishedAt = s.tick + 1
			s.res.SumJCT += t.finishedAt - t.spawnedAt
			s.res.Tasks++
			s.alive--
		case t.spec.SleepEvery > 0 && t.ranSinceSleep >= t.spec.SleepEvery:
			s.remove(t, q)
			t.state = stateSleeping
			t.ranSinceSleep = 0
			t.sleepUntil = s.tick + 1 + t.spec.SleepTicks
			t.sleepTotal += t.spec.SleepTicks
			t.sleepCount++
			s.sleeping = append(s.sleeping, t)
		}
	}

	// Periodic balancing, rotating the balancing CPU like softirq load
	// balancing does.
	if s.tick%s.cfg.BalanceInterval == 0 {
		s.balance(int(s.tick/s.cfg.BalanceInterval) % s.cfg.CPUs)
	}
	s.tick++
}

func (s *Sim) remove(t *task, q *runqueue) {
	heap.Remove(q, t.heapIdx)
	q.load -= t.spec.Weight
}

// balance pulls tasks toward CPU dst from the busiest CPU, consulting the
// decider per candidate — the can_migrate_task hook.
func (s *Sim) balance(dst int) {
	busiest, maxLoad := -1, s.queues[dst].load
	for c, q := range s.queues {
		if c != dst && q.load > maxLoad {
			busiest, maxLoad = c, q.load
		}
	}
	if busiest < 0 {
		return
	}
	src := s.queues[busiest]
	dq := s.queues[dst]

	// Examine a snapshot of candidates; stop once the imbalance is halved.
	cand := append([]*task(nil), src.tasks...)
	targetImb := (src.load - dq.load) / 2
	var moved int64
	for _, t := range cand {
		if moved >= targetImb {
			break
		}
		if t.heapIdx == 0 && src.Len() > 0 && src.tasks[0] == t {
			continue // currently "running"; CFS skips on-CPU tasks
		}
		f := s.features(t, busiest, dst)
		ok := s.decider.CanMigrate(f)
		s.res.Decisions++
		if s.cfg.CollectDecisions {
			y := int64(0)
			if ok {
				y = 1
			}
			s.res.Log = append(s.res.Log, Decision{X: append([]int64(nil), f.V[:]...), Y: y})
		}
		if !ok {
			continue
		}
		s.migrate(t, busiest, dst)
		moved += t.spec.Weight
	}
}

func (s *Sim) migrate(t *task, from, to int) {
	src, dst := s.queues[from], s.queues[to]
	s.remove(t, src)
	// vruntime renormalization across queues, as CFS does.
	t.vruntime = t.vruntime - src.minVruntime() + dst.minVruntime()
	if s.cacheHot(t, from) {
		// Losing a warm cache costs real time.
		t.remaining += s.cfg.CacheRefillTicks
	}
	t.cpu = to
	t.lastMigrated = s.tick
	t.migrations++
	s.res.Migrations++
	dst.load += t.spec.Weight
	heap.Push(dst, t)
}

func (s *Sim) cacheHot(t *task, cpu int) bool {
	return t.lastRanOn == cpu && s.tick-t.lastRanAt < cfsCacheHotTicks
}

// features builds the 15-feature can_migrate_task context for candidate t.
func (s *Sim) features(t *task, from, to int) *Features {
	src, dst := s.queues[from], s.queues[to]
	var f Features
	f.V[FSrcLoad] = src.load
	f.V[FDstLoad] = dst.load
	f.V[FImbalance] = src.load - dst.load
	f.V[FTaskWeight] = t.spec.Weight
	if s.cacheHot(t, from) {
		f.V[FCacheHot] = 1
	}
	f.V[FTicksSinceRan] = s.tick - t.lastRanAt
	if t.lastRanOn < 0 {
		f.V[FTicksSinceRan] = 1 << 20 // never ran
	}
	f.V[FTicksSinceMigrated] = s.tick - t.lastMigrated
	if t.migrations == 0 {
		f.V[FTicksSinceMigrated] = 1 << 20
	}
	f.V[FSrcNrRunning] = int64(src.Len())
	f.V[FDstNrRunning] = int64(dst.Len())
	f.V[FTaskRemaining] = t.remaining
	f.V[FTaskTotalRun] = t.totalRun
	f.V[FTaskWaitTime] = s.tick - t.waitSince
	f.V[FMigrations] = t.migrations
	if t.sleepCount > 0 {
		f.V[FSleepAvg] = t.sleepTotal / t.sleepCount
	}
	if t.preferred == to {
		f.V[FPreferredCPU] = 1
	}
	return &f
}
