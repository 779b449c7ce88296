// Package report generates the three-stage verification report behind
// `rmtkctl verify -report`: for every program a kernel builder admits, it
// runs
//
//	lint     — the corpus analyzer (verifier.AnalyzeCorpus): admission
//	           artifacts cross-checked against a fresh verification pass,
//	           plus the latent-hazard findings (unproven divisions,
//	           runtime-enforced helper contracts);
//	simulate — a functional simulation: every probe input executed through
//	           both VM engines (one kernel in interpreter mode, one in JIT
//	           mode, built identically), with verdicts, emissions and trap
//	           behavior compared — any engine divergence fails the report;
//	prove    — the verifier's proof summary: worst-case step/ML-op/memory
//	           bounds, purity and rate-limit certificates, elided runtime
//	           checks and helper contracts in force.
//
// Programs the builder could not admit appear as failing sections carrying
// the admission error. The report renders as stable text (Render) and JSON
// (JSON); CI uploads both as the verify-report artifact.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"rmtk/internal/core"
	"rmtk/internal/verifier"
)

// Status grades a stage, section or whole report.
type Status string

// Statuses, in increasing severity.
const (
	StatusPass Status = "PASS"
	StatusWarn Status = "WARN"
	StatusFail Status = "FAIL"
)

// worse returns the more severe of two statuses.
func worse(a, b Status) Status {
	rank := map[Status]int{StatusPass: 0, StatusWarn: 1, StatusFail: 2}
	if rank[b] > rank[a] {
		return b
	}
	return a
}

// Rejection is a program the builder failed to admit.
type Rejection struct {
	Name string
	Err  string
}

// Builder constructs the kernel under report in the given execution mode.
// Generate calls it twice — once per engine — so the builder must be
// deterministic: both kernels must hold the same programs, models and
// initial state. Programs that fail admission are returned as rejections,
// not errors; an error aborts report generation entirely.
type Builder func(mode core.ExecMode) (*core.Kernel, []Rejection, error)

// Probe is one functional-simulation input (the three fire arguments).
type Probe struct {
	R1, R2, R3 int64
}

// Options parameterizes report generation.
type Options struct {
	// Probes is the functional-simulation input set; nil selects
	// DefaultProbes. Every program runs every probe, in order, on both
	// engines.
	Probes []Probe
}

// DefaultProbes is the standard simulation input set: a zero fire, small
// in-range arguments, and larger values that exercise history windows and
// emission paths.
var DefaultProbes = []Probe{
	{R1: 1, R2: 100, R3: 0},
	{R1: 1, R2: 108, R3: 2},
	{R1: 2, R2: 7, R3: 1},
	{R1: 9, R2: 512, R3: 4},
}

// LintFinding is one corpus-analyzer diagnostic in report form.
type LintFinding struct {
	Level  string
	Code   string
	Detail string
}

// LintStage is the static-analysis section of one program.
type LintStage struct {
	Status   Status
	Findings []LintFinding `json:",omitempty"`
}

// SimProbe is one probe's compared execution.
type SimProbe struct {
	R1, R2, R3 int64
	Verdict    int64
	Emissions  []int64 `json:",omitempty"`
	// Trap carries the engine error when both engines trapped identically
	// (a WARN, not a divergence).
	Trap string `json:",omitempty"`
	// Divergence describes an interp/JIT disagreement (always a FAIL).
	Divergence string `json:",omitempty"`
}

// SimStage is the functional-simulation section of one program.
type SimStage struct {
	Status      Status
	Probes      []SimProbe
	Traps       int
	Divergences int
}

// ProveStage is the proof-summary section of one program.
type ProveStage struct {
	Status       Status
	MaxSteps     int64
	MLOps        int64
	ModelBytes   int64
	Pure         bool
	RateLimited  bool
	WritesCtx    bool
	ElidedChecks int
	DeadEdges    int
	Contracts    []string `json:",omitempty"`
}

// ProgramSection is one program's three-stage result. A section with Error
// set failed admission and carries no stages.
type ProgramSection struct {
	Name   string
	ID     int64 `json:",omitempty"`
	Status Status
	Error  string      `json:",omitempty"`
	Lint   *LintStage  `json:",omitempty"`
	Sim    *SimStage   `json:",omitempty"`
	Prove  *ProveStage `json:",omitempty"`
}

// Report is the full verification report.
type Report struct {
	Status   Status
	Programs []ProgramSection
}

// Generate builds the kernel in both execution modes and produces the
// three-stage report over every admitted program, plus a failing section per
// rejected program.
func Generate(build Builder, opts Options) (*Report, error) {
	probes := opts.Probes
	if probes == nil {
		probes = DefaultProbes
	}
	kInterp, rejections, err := build(core.ModeInterp)
	if err != nil {
		return nil, fmt.Errorf("report: building interpreter kernel: %w", err)
	}
	kJIT, _, err := build(core.ModeJIT)
	if err != nil {
		return nil, fmt.Errorf("report: building JIT kernel: %w", err)
	}

	rep := &Report{Status: StatusPass}
	for _, e := range kInterp.VerifierCorpus() {
		sec := programSection(e, kInterp, kJIT, probes)
		rep.Status = worse(rep.Status, sec.Status)
		rep.Programs = append(rep.Programs, sec)
	}
	for _, r := range rejections {
		rep.Status = StatusFail
		rep.Programs = append(rep.Programs, ProgramSection{
			Name: r.Name, Status: StatusFail, Error: r.Err,
		})
	}
	return rep, nil
}

// programSection runs the three stages for one admitted program.
func programSection(e verifier.CorpusEntry, kInterp, kJIT *core.Kernel, probes []Probe) ProgramSection {
	sec := ProgramSection{Name: e.Prog.Name, ID: e.ID, Status: StatusPass}

	fresh, findings := verifier.AnalyzeEntry(e)
	lint := &LintStage{Status: StatusPass}
	for _, f := range findings {
		lint.Findings = append(lint.Findings, LintFinding{
			Level: f.Level.String(), Code: f.Code, Detail: f.Detail,
		})
		switch f.Level {
		case verifier.LevelError:
			lint.Status = worse(lint.Status, StatusFail)
		case verifier.LevelWarn:
			lint.Status = worse(lint.Status, StatusWarn)
		}
	}
	sec.Lint = lint

	sim := &SimStage{Status: StatusPass}
	for _, p := range probes {
		sp := runProbe(e.Prog.Name, kInterp, kJIT, p)
		if sp.Divergence != "" {
			sim.Divergences++
			sim.Status = worse(sim.Status, StatusFail)
		} else if sp.Trap != "" {
			sim.Traps++
			sim.Status = worse(sim.Status, StatusWarn)
		}
		sim.Probes = append(sim.Probes, sp)
	}
	sec.Sim = sim

	prove := &ProveStage{Status: StatusPass}
	if fresh == nil {
		// Lint already carries the verify-failed finding; the proof summary
		// has nothing to summarize.
		prove.Status = StatusFail
	} else {
		prove.MaxSteps = fresh.MaxSteps
		prove.MLOps = fresh.MLOps
		prove.ModelBytes = fresh.ModelBytes
		prove.Pure = fresh.Pure
		prove.RateLimited = fresh.NeedsRateLimit
		prove.WritesCtx = fresh.WritesCtx
		prove.ElidedChecks = fresh.ElidedChecks
		prove.DeadEdges = fresh.DeadEdges
		ids := make([]int64, 0, len(fresh.HelperContracts))
		for id := range fresh.HelperContracts {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			parts := make([]string, len(fresh.HelperContracts[id]))
			for i, iv := range fresh.HelperContracts[id] {
				parts[i] = iv.String()
			}
			prove.Contracts = append(prove.Contracts,
				fmt.Sprintf("helper %d args %s", id, strings.Join(parts, " ")))
		}
	}
	sec.Prove = prove

	sec.Status = worse(worse(lint.Status, sim.Status), prove.Status)
	return sec
}

// runProbe executes one probe on both engines and compares the outcomes.
func runProbe(name string, kInterp, kJIT *core.Kernel, p Probe) SimProbe {
	sp := SimProbe{R1: p.R1, R2: p.R2, R3: p.R3}
	vI, eI, errI := kInterp.RunProgramByName(name, p.R1, p.R2, p.R3)
	vJ, eJ, errJ := kJIT.RunProgramByName(name, p.R1, p.R2, p.R3)
	switch {
	case errI != nil && errJ != nil:
		if errI.Error() != errJ.Error() {
			sp.Divergence = fmt.Sprintf("interp trap %q, jit trap %q", errI, errJ)
		} else {
			sp.Trap = errI.Error()
		}
	case errI != nil:
		sp.Divergence = fmt.Sprintf("interp trap %q, jit verdict %d", errI, vJ)
	case errJ != nil:
		sp.Divergence = fmt.Sprintf("jit trap %q, interp verdict %d", errJ, vI)
	case vI != vJ:
		sp.Divergence = fmt.Sprintf("interp verdict %d, jit verdict %d", vI, vJ)
	case !equalEmissions(eI, eJ):
		sp.Divergence = fmt.Sprintf("interp emissions %v, jit emissions %v", eI, eJ)
	default:
		sp.Verdict = vI
		sp.Emissions = eI
	}
	return sp
}

func equalEmissions(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Render writes the stable text form of the report.
func (r *Report) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "verification report: %d programs, status %s\n", len(r.Programs), r.Status)
	for _, sec := range r.Programs {
		if sec.Error != "" {
			fmt.Fprintf(&b, "\nprogram %s: FAIL (admission)\n  error: %s\n", sec.Name, sec.Error)
			continue
		}
		fmt.Fprintf(&b, "\nprogram %s (id %d): %s\n", sec.Name, sec.ID, sec.Status)
		fmt.Fprintf(&b, "  lint: %s (%d findings)\n", sec.Lint.Status, len(sec.Lint.Findings))
		for _, f := range sec.Lint.Findings {
			fmt.Fprintf(&b, "    %s [%s] %s\n", f.Level, f.Code, f.Detail)
		}
		fmt.Fprintf(&b, "  simulate: %s (%d probes, %d traps, %d divergences)\n",
			sec.Sim.Status, len(sec.Sim.Probes), sec.Sim.Traps, sec.Sim.Divergences)
		for _, p := range sec.Sim.Probes {
			switch {
			case p.Divergence != "":
				fmt.Fprintf(&b, "    probe (%d,%d,%d): DIVERGED: %s\n", p.R1, p.R2, p.R3, p.Divergence)
			case p.Trap != "":
				fmt.Fprintf(&b, "    probe (%d,%d,%d): trap: %s\n", p.R1, p.R2, p.R3, p.Trap)
			case len(p.Emissions) > 0:
				fmt.Fprintf(&b, "    probe (%d,%d,%d): R0=%d emissions=%v\n", p.R1, p.R2, p.R3, p.Verdict, p.Emissions)
			default:
				fmt.Fprintf(&b, "    probe (%d,%d,%d): R0=%d\n", p.R1, p.R2, p.R3, p.Verdict)
			}
		}
		if sec.Prove.Status == StatusFail {
			fmt.Fprintf(&b, "  prove: FAIL (no report: program did not verify)\n")
			continue
		}
		fmt.Fprintf(&b, "  prove: %s max-steps=%d ml-ops=%d model-bytes=%d pure=%v rate-limited=%v writes-ctx=%v elided=%d dead-edges=%d\n",
			sec.Prove.Status, sec.Prove.MaxSteps, sec.Prove.MLOps, sec.Prove.ModelBytes,
			sec.Prove.Pure, sec.Prove.RateLimited, sec.Prove.WritesCtx,
			sec.Prove.ElidedChecks, sec.Prove.DeadEdges)
		for _, c := range sec.Prove.Contracts {
			fmt.Fprintf(&b, "    contract: %s\n", c)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// JSON returns the indented JSON form of the report.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
