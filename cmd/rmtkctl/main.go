// Command rmtkctl is the offline RMT program toolchain: assemble, verify,
// disassemble and run RMT programs against a scratch kernel, and inspect or
// recover a control plane's durable state directory.
//
// Usage:
//
//	rmtkctl asm <prog.rmt>                      assemble to <prog.bin>
//	rmtkctl dis <prog.bin>                      disassemble wire format
//	rmtkctl [-v] verify <prog.rmt>              run the verifier, print the report
//	rmtkctl verify -report [-json] [datapaths | prog.rmt ...]
//	                                            three-stage lint/simulate/prove report
//	rmtkctl [-engine aot|jit|interp] run <prog.rmt> [r1 [r2 [r3]]]
//	                                            install and execute, print R0
//	rmtkctl log-inspect <waldir>                print WAL records, checkpoints and damage
//	rmtkctl [-v] recover <waldir>               replay the log, print recovery stats
//	rmtkctl snapshot <waldir>                   recover, then checkpoint and compact
//	rmtkctl tenant-status <waldir>              recover, print per-tenant quotas and resources
//	rmtkctl engine-status <waldir>              recover, print per-program engine tiers,
//	                                            restored quarantines and the WAL incident tail
//
// verify -report generates the three-stage verification report: per
// program, the corpus analyzer's static findings (lint), a functional
// simulation comparing both VM engines on a probe input set (simulate), and
// the verifier's proof summary (prove). With explicit .rmt paths it reports
// on those programs in a scratch kernel; with "datapaths" (or no paths) it
// reports on the built-in demo datapath corpus (page prefetch, IO routing,
// flow classification). -json renders the same report as JSON. The command
// exits nonzero when any section fails — a rejected program, an engine
// divergence, or an artifact-integrity error. -v makes verify print the
// proof artifacts: a per-instruction disassembly annotated with the runtime
// checks the abstract interpreter discharged, the elided-check and dead-edge
// totals, and any helper argument contracts in force. On recover, -v prints
// the full recovered inventory instead of just its digest.
//
// The durability commands operate on a control-plane state directory
// (wal.log plus checkpoint files). log-inspect is read-only and never fails
// on in-log corruption — a torn or bit-rotted suffix is reported, not
// fatal. recover rebuilds a plane from the newest valid checkpoint plus the
// log suffix and reports what was replayed, aborted and discarded. snapshot
// performs a recovery and then writes a fresh checkpoint, compacting the
// log to the retained checkpoint window.
//
// Assembly files may declare resources in directive comments:
//
//	;helpers 1,5
//	;models  3
//
// The run/verify commands provision a scratch kernel with the standard
// helper set; declared models resolve to a zero-predicting stub so that
// admission and execution paths can be exercised offline.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"rmtk"
	"rmtk/internal/core"
	"rmtk/internal/ctrl"
	"rmtk/internal/isa"
	"rmtk/internal/report"
	"rmtk/internal/wal"
)

var (
	verbose = flag.Bool("v", false, "verify: print per-instruction proofs and contracts")
	engine  = flag.String("engine", "jit", "run: execution engine (aot, jit or interp; aot falls back to jit for programs outside the generated corpus)")
)

func main() {
	flag.Parse()
	args := flag.Args()
	if len(args) < 2 {
		usage()
	}
	cmd, path := args[0], args[1]
	var err error
	switch cmd {
	case "asm":
		err = doAsm(path)
	case "dis":
		err = doDis(path)
	case "verify":
		err = doVerify(args[1:])
	case "run":
		err = doRun(path, args[2:])
	case "log-inspect":
		err = doLogInspect(path)
	case "recover":
		err = doRecover(path)
	case "snapshot":
		err = doSnapshot(path)
	case "tenant-status":
		err = doTenantStatus(path)
	case "engine-status":
		err = doEngineStatus(path)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rmtkctl: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: rmtkctl asm|dis|verify|run|log-inspect|recover|snapshot|tenant-status|engine-status <file|waldir> [args]")
	os.Exit(2)
}

// loadSource reads an assembly file and parses directives + instructions
// (isa.ParseSource).
func loadSource(path string) (*rmtk.Program, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return isa.ParseSource(strings.TrimSuffix(path, ".rmt"), string(data))
}

func doAsm(path string) error {
	prog, err := loadSource(path)
	if err != nil {
		return err
	}
	out := strings.TrimSuffix(path, ".rmt") + ".bin"
	if err := os.WriteFile(out, prog.Encode(), 0o644); err != nil {
		return err
	}
	fmt.Printf("%s: %d instructions, %d bytes -> %s\n",
		path, len(prog.Insns), len(prog.Insns)*isa.InstrBytes, out)
	return nil
}

func doDis(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	insns, err := isa.DecodeProgram(data)
	if err != nil {
		return err
	}
	p := &rmtk.Program{Insns: insns}
	fmt.Print(p.Disassemble())
	return nil
}

// scratchKernel provisions a kernel with stub resources for the program's
// declared ids so that admission succeeds offline.
func scratchKernel(prog *rmtk.Program) *rmtk.Kernel {
	k := rmtk.New(rmtk.Config{})
	for _, id := range prog.Models {
		// Stub model: predicts 0 regardless of features.
		for {
			got := k.RegisterModel(&core.FuncModel{Fn: func([]int64) int64 { return 0 }, Feats: 8, Ops: 1, Size: 8})
			if got >= id {
				break
			}
		}
	}
	return k
}

// doVerify dispatches the verify subcommand: the classic single-file report
// by default, or the three-stage lint/simulate/prove report with -report
// (text) / -json (JSON) over explicit program files or the built-in demo
// datapath corpus ("datapaths", the default when no paths are given).
func doVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	asReport := fs.Bool("report", false, "emit the three-stage lint/simulate/prove report")
	asJSON := fs.Bool("json", false, "emit the three-stage report as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths := fs.Args()
	if !*asReport && !*asJSON {
		if len(paths) != 1 {
			return fmt.Errorf("verify: want exactly one program file (or -report)")
		}
		return verifyOne(paths[0])
	}

	var build report.Builder
	if len(paths) == 0 || (len(paths) == 1 && paths[0] == "datapaths") {
		build = report.DatapathBuilder
	} else {
		progs := make([]*rmtk.Program, 0, len(paths))
		for _, p := range paths {
			prog, err := loadSource(p)
			if err != nil {
				return err
			}
			progs = append(progs, prog)
		}
		build = report.FilesBuilder(progs)
	}
	rep, err := report.Generate(build, report.Options{})
	if err != nil {
		return err
	}
	if *asJSON {
		js, err := rep.JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(js))
	} else if err := rep.Render(os.Stdout); err != nil {
		return err
	}
	if rep.Status == report.StatusFail {
		return fmt.Errorf("verification report: FAIL")
	}
	return nil
}

// verifyOne runs the classic single-program admission report.
func verifyOne(path string) error {
	prog, err := loadSource(path)
	if err != nil {
		return err
	}
	k := scratchKernel(prog)
	_, report, err := k.InstallProgram(prog)
	if err != nil {
		return err
	}
	fmt.Printf("%s: VERIFIED\n", path)
	fmt.Printf("  max steps:   %d\n", report.MaxSteps)
	fmt.Printf("  ml ops:      %d\n", report.MLOps)
	fmt.Printf("  model bytes: %d\n", report.ModelBytes)
	fmt.Printf("  rate limit:  %v\n", report.NeedsRateLimit)
	fmt.Printf("  writes ctx:  %v\n", report.WritesCtx)
	fmt.Printf("  elided:      %d runtime checks\n", report.ElidedChecks)
	fmt.Printf("  dead edges:  %d\n", report.DeadEdges)
	for _, w := range report.Warnings {
		fmt.Printf("  warning: %s\n", w)
	}
	if *verbose {
		fmt.Println("  proofs:")
		for pc, in := range prog.Insns {
			var pm isa.ProofMask
			if pc < len(report.Proofs) {
				pm = report.Proofs[pc]
			}
			fmt.Printf("    %3d: %-28s %s\n", pc, in.String(), pm)
		}
		for id, cs := range report.HelperContracts {
			parts := make([]string, len(cs))
			for i, c := range cs {
				parts[i] = c.String()
			}
			fmt.Printf("  contract: helper %d args %s\n", id, strings.Join(parts, " "))
		}
	}
	return nil
}

func doRun(path string, rest []string) error {
	prog, err := loadSource(path)
	if err != nil {
		return err
	}
	var regs [3]int64
	for i, a := range rest {
		if i >= 3 {
			break
		}
		v, perr := strconv.ParseInt(a, 0, 64)
		if perr != nil {
			return fmt.Errorf("bad register value %q", a)
		}
		regs[i] = v
	}
	mode, err := core.ParseExecMode(*engine)
	if err != nil {
		return err
	}
	k := scratchKernel(prog)
	k.SetMode(mode)
	if _, _, err := k.InstallProgram(prog); err != nil {
		return err
	}
	verdict, emissions, err := k.RunProgramByName(prog.Name, regs[0], regs[1], regs[2])
	if err != nil {
		return err
	}
	fmt.Printf("R0 = %d\n", verdict)
	if len(emissions) > 0 {
		fmt.Printf("emissions = %v\n", emissions)
	}
	return nil
}

// stateDir validates that dir exists and is a directory. Recovery of an
// empty directory bootstraps an empty plane by design, but from the CLI a
// mistyped path should be an error, not a silently created state dir.
func stateDir(dir string) error {
	st, err := os.Stat(dir)
	if err != nil {
		return err
	}
	if !st.IsDir() {
		return fmt.Errorf("%s: not a directory", dir)
	}
	return nil
}

// doLogInspect prints a state directory's durable contents read-only: the
// retained checkpoints, every intact log record, and any trailing damage.
// In-log corruption is a report, not an error — the command's whole point
// is examining a directory a crash may have left torn.
func doLogInspect(dir string) error {
	if err := stateDir(dir); err != nil {
		return err
	}
	seqs, err := wal.Checkpoints(dir)
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		st, err := os.Stat(wal.CheckpointPath(dir, seq))
		if err != nil {
			return err
		}
		fmt.Printf("checkpoint seq=%d %dB\n", seq, st.Size())
	}
	sc, err := wal.Scan(dir)
	if err != nil {
		return err
	}
	for i, r := range sc.Records {
		fmt.Printf("%8d  %s\n", sc.Offsets[i], r)
		for _, sub := range r.Sub {
			fmt.Printf("%8s    . %s\n", "", sub)
		}
	}
	fmt.Printf("%d records, %dB intact", len(sc.Records), sc.ValidBytes)
	if sc.DiscardedBytes > 0 {
		fmt.Printf(", %dB damaged suffix (%v)", sc.DiscardedBytes, sc.Corruption)
	}
	fmt.Println()
	return nil
}

// recoverPlane rebuilds a plane from dir and prints the recovery report.
func recoverPlane(dir string) (*ctrl.Plane, error) {
	if err := stateDir(dir); err != nil {
		return nil, err
	}
	p, st, err := ctrl.Recover(dir, core.Config{}, wal.Options{}, nil)
	if err != nil {
		return nil, err
	}
	fmt.Println(st)
	return p, nil
}

func doRecover(dir string) error {
	p, err := recoverPlane(dir)
	if err != nil {
		return err
	}
	defer p.WAL().Close()
	fmt.Printf("inventory digest: %08x (version %d)\n", p.InventoryDigest(), p.Version())
	if *verbose {
		for _, line := range p.Inventory() {
			fmt.Println("  " + line)
		}
	}
	return nil
}

func doSnapshot(dir string) error {
	p, err := recoverPlane(dir)
	if err != nil {
		return err
	}
	defer p.WAL().Close()
	seq, err := p.Checkpoint()
	if err != nil {
		return err
	}
	fmt.Printf("checkpoint written at seq=%d, log %dB\n", seq, p.WAL().Size())
	return nil
}

// doTenantStatus recovers a control plane from its state directory and
// prints each tenant's contract and registered resources — the offline view
// of what the admission controller and quota enforcement would start from.
func doTenantStatus(dir string) error {
	p, err := recoverPlane(dir)
	if err != nil {
		return err
	}
	defer p.WAL().Close()
	names := p.K.TenantNames()
	if len(names) == 0 {
		fmt.Println("no tenants registered (default tenant only)")
		return nil
	}
	for _, name := range names {
		st, err := p.K.TenantStatus(name)
		if err != nil {
			return err
		}
		q := st.Quota
		fmt.Printf("tenant %s: class=%s rate=%d/s burst=%d weight=%d\n", name, q.Class, q.RatePerSec, q.Burst, q.Weight)
		fmt.Printf("  quotas: tables=%d/%s programs=%d/%s step-budget=%s\n",
			st.Tables, capOf(int64(q.MaxTables)), st.Programs, capOf(int64(q.MaxPrograms)), capOf(q.StepBudget))
		fmt.Printf("  datapath: generation=%d quarantined=%d\n", st.Generation, len(st.Quarantined))
	}
	return nil
}

// doEngineStatus recovers a plane from its state directory and reports
// per-program engine health: capability and current tiers, demotion history
// and restored quarantines (the recovered kernel has no sentinel attached,
// so current tiers reflect durable quarantines, not live probing), followed
// by the raw incident tail still present in the log. Read-only with respect
// to the datapath: nothing is fired.
func doEngineStatus(dir string) error {
	p, err := recoverPlane(dir)
	if err != nil {
		return err
	}
	defer p.WAL().Close()

	sts := p.K.EngineStatus()
	if len(sts) == 0 {
		fmt.Println("no programs installed")
	}
	for _, st := range sts {
		fmt.Printf("program %s: id=%d hash=%.12s… max=%s current=%s checkable=%v\n",
			st.Program, st.ID, st.Hash, st.MaxTier, st.Tier, st.Checkable)
	}
	if q := p.K.EngineQuarantines(); len(q) > 0 {
		fmt.Printf("quarantines (%d):\n", len(q))
		for _, e := range q {
			fmt.Printf("  %.12s… held at %s\n", e.Hash, e.Tier)
		}
	} else {
		fmt.Println("no engine quarantines in force")
	}

	// Offline incident tail: whatever incident records the (possibly
	// compacted) log still carries, in order.
	sc, err := wal.Scan(dir)
	if err != nil {
		return err
	}
	var n int
	for _, rec := range sc.Records {
		if rec.Kind == wal.KindIncident {
			n++
			fmt.Println(rec)
		}
	}
	fmt.Printf("%d incident records in the log\n", n)
	return nil
}

// capOf renders a 0-means-unlimited cap.
func capOf(v int64) string {
	if v <= 0 {
		return "unlimited"
	}
	return strconv.FormatInt(v, 10)
}
