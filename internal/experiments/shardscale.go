package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rmtk/internal/core"
	"rmtk/internal/isa"
	"rmtk/internal/table"
)

// This file measures the sharded hot path: how much the verdict cache saves
// on a single thread, and how fire throughput scales with goroutines now that
// the datapath dispatches through immutable route snapshots (no kernel lock,
// per-shard counters, lock-free table reads). The workload is a pure
// ALU+matmul program — the feature vector is built from the fire arguments
// with vecset, never the mutable pool — so the verifier certifies it pure and
// the verdict cache may memoize entire fires.

const (
	// HotPathHook is the hook the scaling workload fires.
	HotPathHook = "bench/shardscale"
	// HotPathKeys is the exact-match key space of the workload table.
	HotPathKeys = 256
)

// ShardScaleResult is one scaling measurement.
type ShardScaleResult struct {
	CachedNsPerFire   float64
	UncachedNsPerFire float64
	// Throughput[g] is fires/sec with g goroutines (cached, batched).
	Throughput map[int]float64
}

// Speedup is the single-thread cached-over-uncached fire speedup.
func (r ShardScaleResult) Speedup() float64 {
	if r.CachedNsPerFire <= 0 {
		return 0
	}
	return r.UncachedNsPerFire / r.CachedNsPerFire
}

// NewHotPathKernel builds a kernel whose HotPathHook runs a verifier-certified
// pure program over HotPathKeys exact-match entries. The root benchmark suite
// (hotpath_bench_test.go) and the shardscale experiment share this fixture.
func NewHotPathKernel(mode core.ExecMode, cached bool) (*core.Kernel, error) {
	k := core.NewKernel(core.Config{Mode: mode, DisableVerdictCache: !cached})
	if err := InstallHotPath(k); err != nil {
		return nil, err
	}
	return k, nil
}

// InstallHotPath installs the hot-path fixture — matrix, program, table and
// HotPathKeys exact-match entries — into an existing kernel. The matrix must
// be the kernel's first registered matrix: the program bytes encode its id,
// and the AOT registry hash (gen_datapaths.go) was generated from exactly
// this construction, so a different id would miss the native tier. The
// engine-chaos experiment reuses this to get a genuinely AOT-compiled
// program into its kernel.
func InstallHotPath(k *core.Kernel) error {
	matID, err := k.RegisterMatrix(&core.Matrix{
		In: 4, Out: 4,
		W: []int64{
			2, 0, 1, 0,
			0, 3, 0, 1,
			1, 0, 2, 0,
			0, 1, 0, 3,
		},
		B: []int64{1, 2, 3, 4},
	})
	if err != nil {
		return err
	}
	prog := &isa.Program{
		Name: "shardscale_pure",
		Hook: HotPathHook,
		Insns: isa.MustAssemble(fmt.Sprintf(`
        ; features from the fire arguments only: pure by construction
        veczero v0, 4
        vecset  v0, 0, r1
        vecset  v0, 1, r2
        vecset  v0, 2, r3
        vecset  v0, 3, r1
        matmul  v1, v0, %d
        vecsum  r0, v1
        exit`, matID)),
		Mats: []int64{matID},
	}
	progID, rep, err := k.InstallProgram(prog)
	if err != nil {
		return err
	}
	if !rep.Pure {
		return fmt.Errorf("shardscale: program not certified pure: %+v", rep)
	}
	t := table.New("shardscale_tab", HotPathHook, table.MatchExact)
	if _, err := k.CreateTable(t); err != nil {
		return err
	}
	for key := 0; key < HotPathKeys; key++ {
		if err := t.Insert(&table.Entry{
			Key:    uint64(key),
			Action: table.Action{Kind: table.ActionProgram, ProgID: progID},
		}); err != nil {
			return err
		}
	}
	return nil
}

// fireLoop drives fires/batch batched fires per iteration over the key space,
// returning total fires issued.
func fireLoop(k *core.Kernel, worker, iters, batch int) int64 {
	events := make([]core.Event, batch)
	out := make([]core.FireResult, batch)
	var fires int64
	for i := 0; i < iters; i++ {
		for j := range events {
			key := int64((worker*batch*iters + i*batch + j) % HotPathKeys)
			events[j] = core.Event{Hook: HotPathHook, Key: key, Arg2: key & 7, Arg3: 3}
		}
		k.FireBatch(events, out)
		fires += int64(batch)
	}
	return fires
}

// measureSingle times single-goroutine batched fires on k.
func measureSingle(k *core.Kernel, iters, batch int) float64 {
	// Warm caches and JIT before timing.
	fireLoop(k, 0, iters/10+1, batch)
	start := time.Now()
	fires := fireLoop(k, 0, iters, batch)
	return float64(time.Since(start).Nanoseconds()) / float64(fires)
}

// throughputAt measures cached fires/sec with g goroutines firing into one
// fresh kernel, each after a warm-up of its own.
func throughputAt(mode core.ExecMode, g, iters, batch int) (float64, error) {
	k, err := NewHotPathKernel(mode, true)
	if err != nil {
		return 0, err
	}
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fireLoop(k, w, iters/10+1, batch)
		}(w)
	}
	wg.Wait()
	start := time.Now()
	var total atomic.Int64
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			total.Add(fireLoop(k, w, iters, batch))
		}(w)
	}
	wg.Wait()
	return float64(total.Load()) / time.Since(start).Seconds(), nil
}

// ShardScale runs the scaling experiment: single-thread cached vs uncached
// ns/fire, then cached throughput at 1/2/4/8 goroutines.
func ShardScale(mode core.ExecMode) (ShardScaleResult, []string, error) {
	const (
		iters = 2000
		batch = 64
	)
	res := ShardScaleResult{Throughput: make(map[int]float64)}

	kc, err := NewHotPathKernel(mode, true)
	if err != nil {
		return res, nil, err
	}
	ku, err := NewHotPathKernel(mode, false)
	if err != nil {
		return res, nil, err
	}
	res.CachedNsPerFire = measureSingle(kc, iters, batch)
	res.UncachedNsPerFire = measureSingle(ku, iters, batch)

	for _, g := range []int{1, 2, 4, 8} {
		if res.Throughput[g], err = throughputAt(mode, g, iters, batch); err != nil {
			return res, nil, err
		}
	}

	lines := []string{
		fmt.Sprintf("gomaxprocs=%d keys=%d batch=%d", runtime.GOMAXPROCS(0), HotPathKeys, batch),
		fmt.Sprintf("single-thread ns/fire: cached=%.0f uncached=%.0f speedup=%.2fx",
			res.CachedNsPerFire, res.UncachedNsPerFire, res.Speedup()),
	}
	base := res.Throughput[1]
	for _, g := range []int{1, 2, 4, 8} {
		rel := 0.0
		if base > 0 {
			rel = res.Throughput[g] / base
		}
		lines = append(lines, fmt.Sprintf("goroutines=%d throughput=%.2f Mfires/s scaling=%.2fx",
			g, res.Throughput[g]/1e6, rel))
	}
	return res, lines, nil
}
