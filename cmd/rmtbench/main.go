// Command rmtbench regenerates the paper's evaluation: Table 1 (page
// prefetching), Table 2 (CPU scheduling) and the ablations indexed in
// DESIGN.md, printing measured values next to the paper's reported numbers.
// Every experiment is a row of experimentTable below; -h lists their names.
//
// Usage:
//
//	rmtbench [-exp <name>|all] [-seed N] [-mode jit|interp|aot] [-short]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"rmtk/internal/core"
	"rmtk/internal/experiments"
)

// experiment is one row of the registry: the -exp name, the banner title
// (modal experiments append the engine mode to it) and the body, which prints
// its result rows to stdout.
type experiment struct {
	name, title string
	modal       bool
	run         func(seed int64, mode core.ExecMode, short bool) error
}

// experimentTable lists every experiment in -exp all order; the usage line, the
// flag help and dispatch are all derived from it.
var experimentTable = []experiment{
	{"table1", "Table 1: page prefetching", true, func(seed int64, mode core.ExecMode, _ bool) error {
		return printRows(experiments.Table1(seed, mode))
	}},
	{"table2", "Table 2: CFS migration mimicry", true, func(seed int64, mode core.ExecMode, _ bool) error {
		return printRows(experiments.Table2(seed, mode))
	}},
	{"adapt", "Ablation D: online adaptation under workload shift", false, func(seed int64, _ core.ExecMode, _ bool) error {
		return printOne(experiments.OnlineAdaptation(seed))
	}},
	{"io", "Extension F: learned block-IO submit path (tail latency)", false, func(seed int64, _ core.ExecMode, _ bool) error {
		return printRows(experiments.IOTail(seed))
	}},
	{"net", "Extension G: learned elephant-flow isolation (RX path)", false, func(seed int64, _ core.ExecMode, _ bool) error {
		return printRows(experiments.NetIsolation(seed))
	}},
	{"chaos", "Experiment H: fault containment under a deterministic fault storm", true, func(seed int64, mode core.ExecMode, _ bool) error {
		return printOne(experiments.Chaos(seed, mode))
	}},
	{"enginechaos", "Experiment N: engine sentinel under engine-level chaos (panic, miscompile, divergence)", false, func(seed int64, _ core.ExecMode, short bool) error {
		res, err := experiments.EngineChaos(seed, short)
		if err != nil {
			return err
		}
		fmt.Println(res)
		if err := res.Check(); err != nil {
			return err
		}
		fmt.Println("gates: demotion ≤ one sampling period, zero corrupted verdicts, JCT ≤ 1.05x clean — all passed")
		return nil
	}},
	{"canary", "Experiment I: shadow-canaried rollout under a poisoned training pipeline", true, func(seed int64, mode core.ExecMode, _ bool) error {
		return printOne(experiments.CanaryRollout(seed, mode))
	}},
	{"shardscale", "Experiment J: sharded hot-path scaling and decision caching", true, func(_ int64, mode core.ExecMode, _ bool) error {
		_, lines, err := experiments.ShardScale(mode)
		return printRows(lines, err)
	}},
	{"fleet", "Experiment L: replicated control plane, leader kill mid-rollout", false, func(seed int64, _ core.ExecMode, short bool) error {
		return printOne(experiments.Fleet(seed, ifShort(short, 1200)))
	}},
	{"tenants", "Experiment M: multi-tenant isolation under overload", true, func(seed int64, mode core.ExecMode, short bool) error {
		return printRows(experiments.Tenants(seed, mode, short))
	}},
	{"recovery", "Experiment K: crash recovery from checkpoint + WAL under a torn final write", false, func(seed int64, _ core.ExecMode, short bool) error {
		return printOne(experiments.Recovery(seed, ifShort(short, 1024)))
	}},
	{"dp", "Ablation E: differential-privacy budget sweep", false, func(seed int64, _ core.ExecMode, _ bool) error {
		return printRows(experiments.DPSweep(seed))
	}},
}

// printRows prints one result row per line; it takes an experiment's
// (rows, error) return directly.
func printRows[T any](rows []T, err error) error {
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println(r)
	}
	return nil
}

func printOne[T any](res T, err error) error { return printRows([]T{res}, err) }

// ifShort is the workload size of experiments that shrink under -short
// (0 selects the experiment's own default).
func ifShort(short bool, n int) int {
	if short {
		return n
	}
	return 0
}

// expNames renders the experiment names joined by sep, "all" last.
func expNames(sep string) string {
	names := make([]string, 0, len(experimentTable)+1)
	for _, e := range experimentTable {
		names = append(names, e.name)
	}
	return strings.Join(append(names, "all"), sep)
}

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run is main minus the process exit: 0 on success, 1 when an experiment
// fails, 2 on a usage error (bad flag, unknown mode or experiment name).
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("rmtbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp   = fs.String("exp", "all", "experiment to run: "+expNames(", "))
		seed  = fs.Int64("seed", 1, "workload seed")
		mode  = fs.String("mode", "jit", "RMT execution mode: jit, interp or aot")
		short = fs.Bool("short", false, "shrink workloads where the experiment supports it")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	execMode, err := core.ParseExecMode(*mode)
	if err != nil {
		fmt.Fprintf(stderr, "rmtbench: %v\n", err)
		return 2
	}

	ran := false
	for _, e := range experimentTable {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran = true
		if e.modal {
			fmt.Printf("== %s (mode=%s) ==\n", e.title, execMode)
		} else {
			fmt.Printf("== %s ==\n", e.title)
		}
		if err := e.run(*seed, execMode, *short); err != nil {
			fmt.Fprintf(stderr, "rmtbench: %s: %v\n", e.name, err)
			return 1
		}
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(stderr, "rmtbench: unknown experiment %q (want %s)\n", *exp, expNames("|"))
		return 2
	}
	return 0
}
