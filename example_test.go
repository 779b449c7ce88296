package rmtk_test

import (
	"fmt"
	"math/rand"
	"strings"

	"rmtk"
	"rmtk/internal/experiments"
	"rmtk/internal/ml/feature"
	"rmtk/internal/schedsim"
)

// check aborts an example on a setup error; the golden output would not
// match anyway.
func check(err error) {
	if err != nil {
		panic(err)
	}
}

// Example_quickstart is the paper's Figure-1 program sketch end to end. It
// builds an in-kernel RMT virtual machine, configures a page_access data
// collection table and a page_prefetch prediction table for pid 56 (the
// rmt_prefetch_prog sketch of Figure 1), admits a bytecode program through
// the verifier, fires kernel events through the datapath, and prints what the
// pipeline decided.
func Example_quickstart() {
	// The in-kernel virtual machine with JIT execution.
	k := rmtk.New(rmtk.Config{Mode: rmtk.ModeJIT})
	plane := rmtk.NewControlPlane(k)

	// rmt_table page_access_tab = { .loc = lookup_swap_cache; .match = pid;
	//                               .action = data_collection(); }
	accessTab := rmtk.NewTable("page_access_tab", "mm/lookup_swap_cache", rmtk.MatchExact)
	_, err := k.CreateTable(accessTab)
	check(err)
	// page_access_entry a1 = {.pid = 56; ...}; collect page numbers into
	// the execution-context history of pid 56.
	check(accessTab.Insert(&rmtk.Entry{
		Key:    56,
		Action: rmtk.Action{Kind: rmtk.ActionCollect},
	}))

	// rmt_table page_prefetch_tab = { .loc = swap_cluster_readahead;
	//                                 .match = pid; .action = ml_prediction(); }
	// Here the "model" is a verified bytecode program: it reads the last
	// two collected pages and emits the next page at the same stride — the
	// smallest possible learned-prefetch action.
	prefetchTab := rmtk.NewTable("page_prefetch_tab", "mm/swap_cluster_readahead", rmtk.MatchExact)
	_, err = k.CreateTable(prefetchTab)
	check(err)

	insns, err := rmtk.Assemble(`
        ; R1 = pid, R2 = faulting page
        call      5                 ; rmt_hist_len(pid)
        jlti      r0, 2, done       ; need two samples before predicting
        vecldhist v0, r1, 2         ; last two collected pages
        scalarval r4, v0, 0         ; older
        scalarval r5, v0, 1         ; newer
        sub       r5, r4            ; stride
        jeqi      r5, 0, done
        mov       r6, r2
        add       r6, r5            ; next page = fault + stride
        ststack   [0], r1
        mov       r1, r6
        call      1                 ; rmt_emit(page) — rate limited
        ldstack   r1, [0]
done:   movimm    r0, 0
        exit
`)
	check(err)
	prog := &rmtk.Program{
		Name:    "stride_prefetch",
		Hook:    "mm/swap_cluster_readahead",
		Insns:   insns,
		Helpers: []int64{rmtk.HelperEmit, rmtk.HelperHistLen},
	}
	// syscall_rmt(): the verifier checks well-formedness, bounded
	// execution and resource whitelists before admission.
	progID, report, err := plane.LoadProgram(prog)
	check(err)
	fmt.Printf("admitted %q: worst-case %d steps, rate-limited=%v\n",
		prog.Name, report.MaxSteps, report.NeedsRateLimit)

	check(prefetchTab.Insert(&rmtk.Entry{
		Key:    56,
		Action: rmtk.Action{Kind: rmtk.ActionProgram, ProgID: progID},
	}))

	// Drive the datapath: pid 56 touches pages 100, 104, 108 — a stride-4
	// stream. Each access fires data collection, then the prefetch hook.
	for _, page := range []int64{100, 104, 108} {
		k.Fire("mm/lookup_swap_cache", 56, page, 0)
		res := k.Fire("mm/swap_cluster_readahead", 56, page, 0)
		fmt.Printf("pid 56 touched page %d -> prefetch %v\n", page, res.Emissions)
	}

	// A different pid matches no entry: the kernel's default behaviour
	// applies (no prefetch).
	res := k.Fire("mm/swap_cluster_readahead", 99, 500, 0)
	fmt.Printf("pid 99 touched page 500 -> matched=%d emissions=%v (default)\n",
		res.Matched, res.Emissions)

	// Seven fires: three data collections, three prefetch decisions run on
	// the JIT and pid 99's unmatched one. The histogram is the program's
	// executed steps, bounded by the verifier's worst case.
	fmt.Println("\nkernel metrics:")
	for _, line := range k.Metrics.Snapshot() {
		switch name, _, _ := strings.Cut(line, " "); name {
		case "core.fires", "core.collects", "core.engine_fires.jit", "core.program_steps":
			fmt.Println(" ", line)
		}
	}
	// Output:
	// admitted "stride_prefetch": worst-case 15 steps, rate-limited=true
	// pid 56 touched page 100 -> prefetch []
	// pid 56 touched page 104 -> prefetch [108]
	// pid 56 touched page 108 -> prefetch [112]
	// pid 99 touched page 500 -> matched=0 emissions=[] (default)
	//
	// kernel metrics:
	//   core.collects 3
	//   core.engine_fires.jit 3
	//   core.fires 7
	//   core.program_steps count=3 mean=11.3 p99<=16
}

// Example_leanMonitor is lean monitoring (benefit #1 of §2.1): rank which of
// the scheduler's 15 monitored quantities actually drive migration decisions,
// drop the rest of the monitors, and measure what the leaner model gives up —
// the paper's 15→2 feature reduction that keeps 94+% accuracy.
func Example_leanMonitor() {
	const benchmark = 1 // streamcluster: the busiest balancer
	ds := experiments.CollectSchedDataset(benchmark)
	fmt.Printf("%s: %d decisions, %d features monitored\n",
		ds.Workload, len(ds.Xtrain), schedsim.NumFeatures)

	full, err := experiments.TrainSchedMLP(ds, nil, 42)
	check(err)
	fullAcc := 100 * full.Accuracy(ds.Xtest, ds.Ytest)

	// Permutation importance: shuffle one monitored feature at a time and
	// watch the accuracy drop.
	y64 := make([]int64, len(ds.Ytrain))
	for i, v := range ds.Ytrain {
		y64[i] = int64(v)
	}
	imp, err := feature.Permutation(feature.Func(func(x []int64) int64 {
		return int64(full.Predict(x))
	}), ds.Xtrain, y64, 5)
	check(err)
	fmt.Println("\nfeature importance ranking (accuracy drop when shuffled):")
	for rank, im := range imp {
		marker := " "
		if rank < experiments.LeanFeatures {
			marker = "*"
		}
		fmt.Printf(" %s %2d. %-22s %.4f\n", marker, rank+1, schedsim.FeatureNames[im.Feature], im.Score)
	}

	// Keep only the starred monitors; everything else stops being
	// collected — no more periodic unmapping, counters, or cache pollution
	// for quantities that contribute nothing.
	for _, kept := range []int{2, 4, 8} {
		cols := feature.TopK(imp, kept)
		lean, err := experiments.TrainSchedMLP(ds, cols, 43)
		check(err)
		leanAcc := 100 * lean.Accuracy(feature.Select(ds.Xtest, cols), ds.Ytest)
		ops, _ := lean.Cost()
		fmt.Printf("\nkeep %2d/%d monitors -> accuracy %.2f%% (full model: %.2f%%), %d MACs/inference",
			kept, schedsim.NumFeatures, leanAcc, fullAcc, ops)
	}
	fullOps, _ := full.Cost()
	fmt.Printf("\nfull model: %d MACs/inference\n", fullOps)
	// Output:
	// streamcluster: 16891 decisions, 15 features monitored
	//
	// feature importance ranking (accuracy drop when shuffled):
	//  *  1. imbalance              0.2103
	//  *  2. dst_nr_running         0.0915
	//     3. dst_load               0.0547
	//     4. src_nr_running         0.0377
	//     5. src_load               0.0001
	//     6. ticks_since_migrated   0.0001
	//     7. preferred_cpu          0.0001
	//     8. migrations             0.0001
	//     9. task_weight            0.0000
	//    10. cache_hot              0.0000
	//    11. ticks_since_ran        0.0000
	//    12. task_remaining         0.0000
	//    13. task_total_run         0.0000
	//    14. task_wait_time         0.0000
	//    15. sleep_avg              0.0000
	//
	// keep  2/15 monitors -> accuracy 99.80% (full model: 99.80%), 192 MACs/inference
	// keep  4/15 monitors -> accuracy 99.80% (full model: 99.80%), 288 MACs/inference
	// keep  8/15 monitors -> accuracy 99.80% (full model: 99.80%), 480 MACs/inference
	// full model: 816 MACs/inference
}

// Example_crossApp is cross-application optimization (benefit #4 of §2.1):
// the kernel's centralized view lets RMT tables learn relationships *between*
// applications. Monitoring detects a producer/consumer pair — one process
// keeps touching pages in regions another process recently wrote — and
// activates a joint optimization: on every producer write, the kernel
// pre-stages the page for the consumer, eliminating its cold misses.
//
// Detection runs entirely in the datapath: a prefix-match table maps memory
// regions to their most recent writer, and a verified bytecode program run on
// every read looks the region up (RMT_MATCH_CTXT), counts pairings per
// (reader, writer) in the execution context, and returns the writer's pid
// once the count crosses a threshold.
func Example_crossApp() {
	const (
		hookWrite = "mm/page_write"
		hookRead  = "mm/page_read"

		regionShift = 6 // 64-page regions
		pairThresh  = 32

		producer  = int64(100)
		consumer  = int64(200)
		bystander = int64(300)
	)
	k := rmtk.New(rmtk.Config{CtxFields: 4})
	plane := rmtk.NewControlPlane(k)

	// region_writer_tab: prefix-matched regions -> writer pid (as the
	// entry parameter). Writers install their regions as they touch them.
	writerTab := rmtk.NewTable("region_writer_tab", hookWrite, rmtk.MatchPrefix)
	writerTabID, err := k.CreateTable(writerTab)
	check(err)

	// pair_detect: on every read, match the page's region against the
	// writer table; if it belongs to another process, bump the pairing
	// counter in the reader's execution context and return the writer pid
	// once the pairing is established.
	insns, err := rmtk.Assemble(fmt.Sprintf(`
        ; R1 = reader pid, R2 = page
        matchctxt r6, r2, %d        ; longest-prefix region match: writer pid or -1
        jlti      r6, 0, nomatch
        jeq       r6, r1, nomatch   ; reading our own writes is not a pairing
        ldctxt    r7, r1, 0         ; pairing count
        addimm    r7, 1
        stctxt    r1, 0, r7
        jlti      r7, %d, nomatch
        mov       r0, r6            ; pairing established: return writer pid
        exit
nomatch:
        movimm    r0, -1
        exit
`, writerTabID, pairThresh))
	check(err)
	progID, report, err := plane.LoadProgram(&rmtk.Program{
		Name:   "pair_detect",
		Hook:   hookRead,
		Insns:  insns,
		Tables: []int64{writerTabID},
	})
	check(err)
	fmt.Printf("admitted pair_detect: %d worst-case steps\n", report.MaxSteps)

	readTab := rmtk.NewTable("pair_detect_tab", hookRead, rmtk.MatchTernary)
	_, err = k.CreateTable(readTab)
	check(err)
	check(readTab.Insert(&rmtk.Entry{
		Mask:   0, // every reader
		Action: rmtk.Action{Kind: rmtk.ActionProgram, ProgID: progID},
	}))

	// Workload: the producer writes a growing log; the consumer tails it;
	// a bystander reads unrelated pages.
	rng := rand.New(rand.NewSource(7))
	staged := make(map[int64]bool) // pages pre-staged for the consumer
	var (
		pairedWith   = int64(-1)
		consumerCold = 0
		consumerWarm = 0
	)
	writePage := int64(1 << 20)
	for step := 0; step < 4000; step++ {
		// Producer writes the next log page and registers its region.
		writePage++
		region := uint64(writePage >> regionShift)
		_ = writerTab.Insert(&rmtk.Entry{
			Key:       region << regionShift,
			PrefixLen: 64 - regionShift,
			Action:    rmtk.Action{Kind: rmtk.ActionParam, Param: producer},
		})
		k.Fire(hookWrite, producer, writePage, 0)
		if pairedWith == producer {
			// Joint optimization active: pre-stage the freshly written
			// page for the consumer.
			staged[writePage] = true
		}

		// Consumer tails the log a few pages behind.
		readPage := writePage - 4
		if staged[readPage] {
			consumerWarm++
		} else {
			consumerCold++
		}
		res := k.Fire(hookRead, consumer, readPage, 0)
		if res.Verdict >= 0 && pairedWith < 0 {
			pairedWith = res.Verdict
			fmt.Printf("step %4d: datapath detected producer/consumer pairing (writer pid %d)\n",
				step, pairedWith)
			fmt.Println("          -> activating cross-application pre-staging")
		}

		// Bystander noise: random reads that never pair.
		k.Fire(hookRead, bystander, rng.Int63n(1<<18), 0)
	}

	byCount := k.Ctx().Load(bystander, 0)
	fmt.Printf("\nconsumer cold reads: %d, pre-staged reads: %d (%.1f%% served warm)\n",
		consumerCold, consumerWarm, 100*float64(consumerWarm)/float64(consumerCold+consumerWarm))
	fmt.Printf("bystander pairing count stayed at %d (threshold %d): no false pairing\n",
		byCount, pairThresh)
	// Output:
	// admitted pair_detect: 9 worst-case steps
	// step   34: datapath detected producer/consumer pairing (writer pid 100)
	//           -> activating cross-application pre-staging
	//
	// consumer cold reads: 39, pre-staged reads: 3961 (99.0% served warm)
	// bystander pairing count stayed at 0 (threshold 32): no false pairing
}
