package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"rmtk/internal/core"
	"rmtk/internal/experiments"
	"rmtk/internal/isa"
	"rmtk/internal/table"
)

const (
	// fireBatch is the FireBatch size of every fire workload; per-op latency
	// is per-batch time ÷ fireBatch.
	fireBatch = 64
	// flowCount is the distinct-flow working set of fire_hot and ctrl_churn:
	// far below the 32×4096-entry verdict cache, so every repeat hits.
	flowCount = 2048
	// dynamicHook carries the dynamically-installed (JIT-tier) variant.
	dynamicHook = "bench/dynamic"
	// hotMatrixID is the id of the fixture matrix: the first one registered.
	hotMatrixID = 1
	// coldArg3Base keeps the never-repeating arg3 counter away from the small
	// arg3 values of the generated flow set.
	coldArg3Base = 1 << 20
)

// flow is one (key, arg2, arg3) fire argument triple.
type flow struct{ key, arg2, arg3 int64 }

// genFlows returns flowCount distinct flows — all 256 table keys × 8 arg2
// values — in a seed-driven order.
func genFlows(seed int64) []flow {
	flows := make([]flow, flowCount)
	for i := range flows {
		flows[i] = flow{key: int64(i % experiments.HotPathKeys), arg2: int64(i / experiments.HotPathKeys), arg3: int64(i%5) + 1}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(flows), func(i, j int) { flows[i], flows[j] = flows[j], flows[i] })
	return flows
}

// flowHash fingerprints the generated input order.
func flowHash(flows []flow) string {
	h := fnv.New64a()
	for _, f := range flows {
		fmt.Fprintf(h, "%d,%d,%d;", f.key, f.arg2, f.arg3)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// fillBatch writes batch b of the cyclic walk over flows into events, all on
// one hook. novel replaces arg3 with a counter that never repeats across
// batches, so a verdict cache can only miss.
func fillBatch(events []core.Event, flows []flow, b int64, hook string, novel bool) {
	base := (b * int64(len(events))) % int64(len(flows))
	for j := range events {
		f := flows[(base+int64(j))%int64(len(flows))]
		if novel {
			f.arg3 = coldArg3Base + b*int64(len(events)) + int64(j)
		}
		events[j] = core.Event{Hook: hook, Key: f.key, Arg2: f.arg2, Arg3: f.arg3}
	}
}

// seedConst derives the non-zero addimm constant of a dynamically installed
// program variant from the seed and the variant's index.
func seedConst(seed int64, variant int) int64 {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(variant)))
	return 1 + rng.Int63n(1<<20)
}

// hotSource is the assembler text of the shardscale fixture's program shape.
// addConst == 0 reproduces the fixture byte for byte (so its content hash is
// in the AOT registry); any other constant appends one addimm, which changes
// the hash and leaves the program to the JIT — the dynamically-installed case.
func hotSource(matID, addConst int64) string {
	var b strings.Builder
	b.WriteString("veczero v0, 4\nvecset v0, 0, r1\nvecset v0, 1, r2\nvecset v0, 2, r3\nvecset v0, 3, r1\n")
	fmt.Fprintf(&b, "matmul v1, v0, %d\nvecsum r0, v1\n", matID)
	if addConst != 0 {
		fmt.Fprintf(&b, "addimm r0, %d\n", addConst)
	}
	b.WriteString("exit\n")
	return b.String()
}

// hotProgram assembles hotSource into an installable program.
func hotProgram(name, hook string, matID, addConst int64) (*isa.Program, error) {
	insns, err := isa.Assemble(hotSource(matID, addConst))
	if err != nil {
		return nil, err
	}
	return &isa.Program{Name: name, Hook: hook, Insns: insns, Mats: []int64{matID}}, nil
}

// programEntry is an exact-match entry running progID.
func programEntry(key, progID int64) *table.Entry {
	return &table.Entry{Key: uint64(key), Action: table.Action{Kind: table.ActionProgram, ProgID: progID}}
}

// attachFullStack adds the layers a production kernel carries on top of the
// engine: the supervisor and the sentinel at its default 1-in-64 sampling.
func attachFullStack(k *core.Kernel) {
	k.Supervise(core.SupervisorConfig{})
	k.AttachSentinel(core.SentinelConfig{SampleEvery: 64})
}

// newFullStackKernel builds the kernel fire_hot and fire_cold measure: AOT
// mode, verdict cache on, supervisor and sentinel attached, the shardscale
// fixture on its hook, and the same program shape with a seed-derived
// constant on dynamicHook (hash misses the AOT registry → JIT tier).
func newFullStackKernel(seed int64) (*core.Kernel, int64, error) {
	k := core.NewKernel(core.Config{Mode: core.ModeAOT})
	if err := experiments.InstallHotPath(k); err != nil {
		return nil, 0, err
	}
	c := seedConst(seed, 0)
	prog, err := hotProgram("bench_dynamic", dynamicHook, hotMatrixID, c)
	if err != nil {
		return nil, 0, err
	}
	id, rep, err := k.InstallProgram(prog)
	if err != nil {
		return nil, 0, err
	}
	if !rep.Pure {
		return nil, 0, fmt.Errorf("bench: dynamic variant not certified pure")
	}
	t := table.New("dynamic_tab", dynamicHook, table.MatchExact)
	if _, err := k.CreateTable(t); err != nil {
		return nil, 0, err
	}
	for key := int64(0); key < experiments.HotPathKeys; key++ {
		if err := t.Insert(programEntry(key, id)); err != nil {
			return nil, 0, err
		}
	}
	attachFullStack(k)
	return k, c, nil
}

// oracle predicts the fixture program's verdict from the weight matrix alone:
// the program computes Σ(W·x + B) over x = (r1, r2, r3, r1), which is linear
// in the fire arguments. It never consults an engine.
type oracle struct{ c0, cKey, cArg2, cArg3 int64 }

func newOracle(m *core.Matrix) (oracle, error) {
	if m.In != 4 {
		return oracle{}, fmt.Errorf("bench: fixture matrix has %d inputs, want 4", m.In)
	}
	var col [4]int64
	for j := 0; j < m.Out; j++ {
		for i := 0; i < m.In; i++ {
			col[i] += m.W[j*m.In+i]
		}
	}
	var o oracle
	for _, b := range m.B {
		o.c0 += b
	}
	o.cKey, o.cArg2, o.cArg3 = col[0]+col[3], col[1], col[2]
	return o, nil
}

func (o oracle) verdict(key, arg2, arg3 int64) int64 {
	return o.c0 + o.cKey*key + o.cArg2*arg2 + o.cArg3*arg3
}

// kernelOracle builds the oracle from the matrix installed in k.
func kernelOracle(k *core.Kernel) (oracle, error) {
	m, err := k.Matrix(hotMatrixID)
	if err != nil {
		return oracle{}, err
	}
	return newOracle(m)
}

// failedFire classifies one fire result: trapped, fell back to the baseline,
// or a verdict that differs from the oracle's.
func failedFire(r *core.FireResult, want int64) bool {
	return r.Trapped || r.FellBack || r.Verdict != want
}
