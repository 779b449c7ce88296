// Hot-path benchmark suite: the fire-dispatch measurements the CI perf gate
// (cmd/benchgate, .github/workflows/ci.yml "bench" job) tracks against
// BENCH_BASELINE.json. Each benchmark drives the shared shardscale fixture —
// a verifier-certified pure ALU+matmul program behind a 256-entry exact
// table — through batched fires, varying execution mode (aot/interp/jit), verdict
// caching (cached/uncached) and firing goroutines (1/4/16), plus a coldflows
// arm (cache on, every flow new) that prices a verdict-cache miss, a
// supervised arm that prices a closed breaker and a bystander arm that prices
// commits to a hook other than the one firing. ns/op is per fire.
package rmtk_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"rmtk/internal/core"
	"rmtk/internal/experiments"
	"rmtk/internal/table"
)

const hotPathBatch = 64

// fireHotPath issues fires [from, to) as batches on k, over the fixture's
// repeating flows.
func fireHotPath(k *core.Kernel, from, to int64) { fireFlows(k, from, to, false) }

// fireFlows issues fires [from, to) as batches on k. With cold set, Arg3 is
// the fire index, so no flow key ever repeats.
func fireFlows(k *core.Kernel, from, to int64, cold bool) {
	events := make([]core.Event, hotPathBatch)
	out := make([]core.FireResult, hotPathBatch)
	for i := from; i < to; i += hotPathBatch {
		n := int64(hotPathBatch)
		if i+n > to {
			n = to - i
		}
		for j := int64(0); j < n; j++ {
			key := (i + j) % experiments.HotPathKeys
			events[j] = core.Event{Hook: experiments.HotPathHook, Key: key, Arg2: key & 7, Arg3: 3}
			if cold {
				events[j].Arg3 = i + j
			}
		}
		k.FireBatch(events[:n], out[:n])
	}
}

func benchHotPath(b *testing.B, mode core.ExecMode, cached bool, goroutines int) {
	benchHotPathK(b, mode, cached, false, false, goroutines)
}

func benchHotPathK(b *testing.B, mode core.ExecMode, cached, sentinel, supervised bool, goroutines int) {
	k, err := experiments.NewHotPathKernel(mode, cached)
	if err != nil {
		b.Fatal(err)
	}
	if supervised {
		// Default breakers, never tripped: every fire pays one Allow and one
		// RecordRun on a closed breaker, cached (replay) or not.
		k.Supervise(core.SupervisorConfig{})
	}
	if sentinel {
		// Guardrail overhead at the default 1-in-64 differential sampling
		// rate: the gate is ≤5% over the plain uncached fire.
		k.AttachSentinel(core.SentinelConfig{SampleEvery: 64})
	}
	fireHotPath(k, 0, 4*experiments.HotPathKeys) // warm JIT, memo and verdict caches
	b.ResetTimer()
	if goroutines == 1 {
		fireHotPath(k, 0, int64(b.N))
		return
	}
	// Workers claim disjoint chunks of the b.N fire budget.
	var next atomic.Int64
	var wg sync.WaitGroup
	const chunk = 4 * hotPathBatch
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				from := next.Add(chunk) - chunk
				if from >= int64(b.N) {
					return
				}
				to := from + chunk
				if to > int64(b.N) {
					to = int64(b.N)
				}
				fireHotPath(k, from, to)
			}
		}()
	}
	wg.Wait()
}

// benchColdFlows is the miss arm: verdict cache on, every flow key new, so
// each fire pays the cache probe and the doorkeeper on top of an uncached
// fire and is never stored. coldflows − uncached is the miss tax.
func benchColdFlows(b *testing.B, mode core.ExecMode) {
	k, err := experiments.NewHotPathKernel(mode, true)
	if err != nil {
		b.Fatal(err)
	}
	const warm = 4 * experiments.HotPathKeys
	fireFlows(k, 0, warm, true)
	b.ResetTimer()
	fireFlows(k, warm, warm+int64(b.N), true)
}

// bystanderEvery is the fires between two foreign-hook commits of the
// bystander arm — the commit rate of the benchmark's ctrl_churn workload.
const bystanderEvery = 2048

// benchBystander is the supervised/cached arm with a control plane busy
// elsewhere: 512 cached flows on the fixture hook while an entry of another
// hook's table is rewritten every bystanderEvery fires. No such commit can
// change a verdict of the firing hook, so bystander − supervised/cached is
// what unrelated reconfiguration costs a cached fire: the commits themselves,
// and any verdict the cache drops because of them.
func benchBystander(b *testing.B) {
	k, err := experiments.NewHotPathKernel(core.ModeAOT, true)
	if err != nil {
		b.Fatal(err)
	}
	k.Supervise(core.SupervisorConfig{})
	foreign := table.New("bystander_foreign", "bench/foreign", table.MatchExact)
	if _, err := k.CreateTable(foreign); err != nil {
		b.Fatal(err)
	}
	if err := foreign.Insert(&table.Entry{Key: 0, Action: table.Action{Kind: table.ActionParam, Param: 1}}); err != nil {
		b.Fatal(err)
	}
	events := make([]core.Event, hotPathBatch)
	out := make([]core.FireResult, hotPathBatch)
	fire := func(from, to int64) {
		for i := from; i < to; i += hotPathBatch {
			for j := int64(0); j < hotPathBatch; j++ {
				key := (i + j) % experiments.HotPathKeys
				events[j] = core.Event{Hook: experiments.HotPathHook, Key: key, Arg2: key & 7, Arg3: 3 + (i+j)/experiments.HotPathKeys&1}
			}
			k.FireBatch(events, out)
		}
	}
	fire(0, 3*2*experiments.HotPathKeys) // fingerprint, store, first replay
	b.ResetTimer()
	for i := int64(0); i < int64(b.N); i += bystanderEvery {
		fire(i, i+bystanderEvery)
		foreign.UpdateAction(0, table.Action{Kind: table.ActionParam, Param: i})
	}
}

// BenchmarkHotPath is the CI-gated suite: mode × caching × goroutines, plus
// the sentinel-attached AOT variant measuring the engine-guardrail overhead
// (health-ladder atomic load + 1-in-64 differential checking) on the
// uncached fire path, plus the supervised AOT arms (supervised/uncached −
// uncached is the supervisor tax), plus the AOT and JIT miss arms, plus the
// bystander arm (bystander − supervised/cached is the bystander tax).
func BenchmarkHotPath(b *testing.B) {
	for _, mode := range []core.ExecMode{core.ModeAOT, core.ModeJIT, core.ModeInterp} {
		for _, cached := range []bool{true, false} {
			for _, g := range []int{1, 4, 16} {
				mode, cached, g := mode, cached, g
				name := fmt.Sprintf("%s/uncached/g%d", mode, g)
				if cached {
					name = fmt.Sprintf("%s/cached/g%d", mode, g)
				}
				b.Run(name, func(b *testing.B) {
					benchHotPath(b, mode, cached, g)
				})
			}
		}
	}
	for _, g := range []int{1, 4, 16} {
		g := g
		b.Run(fmt.Sprintf("aot/sentinel/g%d", g), func(b *testing.B) {
			benchHotPathK(b, core.ModeAOT, false, true, false, g)
		})
	}
	for _, cached := range []bool{true, false} {
		cached := cached
		name := "aot/supervised/uncached/g1"
		if cached {
			name = "aot/supervised/cached/g1"
		}
		b.Run(name, func(b *testing.B) {
			benchHotPathK(b, core.ModeAOT, cached, false, true, 1)
		})
	}
	for _, mode := range []core.ExecMode{core.ModeAOT, core.ModeJIT} {
		mode := mode
		b.Run(fmt.Sprintf("%s/coldflows/g1", mode), func(b *testing.B) {
			benchColdFlows(b, mode)
		})
	}
	b.Run("aot/bystander/g1", benchBystander)
}
