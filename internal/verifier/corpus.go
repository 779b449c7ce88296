package verifier

// Corpus analysis: a static cross-check of every *admitted* program against
// the registries it was admitted under. Where Verify gates one program at
// admission time, AnalyzeCorpus audits the whole installed population after
// the fact — the "rmtlint for programs". It re-derives each program's
// verification report and compares it with the admission artifacts the
// program actually carries, surfacing the drift classes that have no other
// detector:
//
//   - a program whose attached static-cost certificate (StaticSteps), proof
//     masks or interval facts no longer match what the verifier proves
//     today — stale artifacts mean the engines elide checks that were never
//     re-proven, or fold branches on facts nobody re-derived;
//   - div/mod sites whose divisor the interval domain cannot show nonzero —
//     legal, but every such site is a runtime trap waiting on input shape;
//   - helper call sites running under runtime contract enforcement (the
//     contract exists but the site's arguments were not provably inside it)
//     and helpers with no declared contract at all.
//
// The report generator (internal/report) uses these findings as the lint
// stage of `rmtkctl verify -report`.

import (
	"fmt"
	"sort"

	"rmtk/internal/isa"
)

// Level grades a corpus finding.
type Level int

const (
	// LevelInfo findings are observations: nothing is wrong, but an operator
	// auditing the corpus wants to know (unconstrained helpers, verifier
	// warnings).
	LevelInfo Level = iota
	// LevelWarn findings are latent hazards: the program is admissible but
	// carries a runtime trap risk (unproven divisions, runtime-enforced
	// contracts).
	LevelWarn
	// LevelError findings are integrity violations: the program's admission
	// artifacts disagree with what the verifier proves today, or the program
	// no longer verifies at all.
	LevelError
)

// String renders the level as its report tag.
func (l Level) String() string {
	switch l {
	case LevelError:
		return "ERROR"
	case LevelWarn:
		return "WARN"
	default:
		return "INFO"
	}
}

// Finding is one corpus-analysis diagnostic.
type Finding struct {
	// Program names the program the finding is about.
	Program string
	// Level grades the finding.
	Level Level
	// Code is the stable machine-readable finding class.
	Code string
	// Detail is the human-readable specifics.
	Detail string
}

// String renders "LEVEL program [code]: detail".
func (f Finding) String() string {
	return fmt.Sprintf("%s %s [%s]: %s", f.Level, f.Program, f.Code, f.Detail)
}

// CorpusEntry pairs an admitted program with the verifier configuration it
// is checked against (the same visibility-restricted registry snapshot its
// owner admits under). Kernels produce entries via core.VerifierCorpus.
type CorpusEntry struct {
	// ID is the program's kernel id (diagnostic only).
	ID int64
	// Prog is the admitted program, carrying its admission artifacts
	// (Proofs, HelperContracts, StaticSteps, Pure, Facts).
	Prog *isa.Program
	// Cfg is the registry snapshot to verify against.
	Cfg Config
}

// Finding codes emitted by AnalyzeEntry.
const (
	CodeVerifyFailed    = "verify-failed"    // program no longer verifies
	CodeNoCostCert      = "no-cost-cert"     // admitted without a static-cost certificate
	CodeCostDrift       = "cost-drift"       // StaticSteps disagrees with re-verification
	CodeProofMissing    = "proof-missing"    // proof masks absent or wrong length
	CodeProofDrift      = "proof-drift"      // attached proof masks disagree with re-verification
	CodePurityDrift     = "purity-drift"     // purity certificate disagrees with re-verification
	CodeFactsDrift      = "facts-drift"      // interval facts absent or disagree with re-verification
	CodeUnprovenDiv     = "unproven-div"     // div/mod divisor not provably nonzero
	CodeContractRuntime = "contract-runtime" // helper contract enforced at runtime, not proven
	CodeContractMissing = "contract-missing" // helper declares no argument contract
	CodeVerifierWarning = "verifier-warning" // non-fatal verifier warning
)

// AnalyzeEntry re-verifies one admitted program and cross-checks the fresh
// report against the entry's attached admission artifacts. It returns the
// fresh report (nil when verification fails) and all findings.
func AnalyzeEntry(e CorpusEntry) (*Report, []Finding) {
	name := e.Prog.Name
	var out []Finding
	add := func(level Level, code, format string, args ...any) {
		out = append(out, Finding{
			Program: name, Level: level, Code: code,
			Detail: fmt.Sprintf(format, args...),
		})
	}

	rep, err := Verify(e.Prog, e.Cfg)
	if err != nil {
		add(LevelError, CodeVerifyFailed, "%v", err)
		return nil, out
	}

	// Cost certificate: admitted programs must carry the verifier's
	// worst-case step bound, and it must still be derivable.
	switch {
	case e.Prog.StaticSteps == 0:
		add(LevelError, CodeNoCostCert,
			"no static-cost certificate attached (verifier bounds %d steps); engines fall back to per-step budget checks",
			rep.MaxSteps)
	case e.Prog.StaticSteps != rep.MaxSteps:
		add(LevelError, CodeCostDrift,
			"attached cost certificate claims %d worst-case steps but re-verification proves %d",
			e.Prog.StaticSteps, rep.MaxSteps)
	}

	// Proof masks: present, per-instruction, and identical to what the
	// verifier proves against today's registries. A drifted mask means the
	// engines elide a check nobody re-proved.
	if len(e.Prog.Proofs) != len(e.Prog.Insns) {
		add(LevelError, CodeProofMissing,
			"program carries %d proof masks for %d instructions",
			len(e.Prog.Proofs), len(e.Prog.Insns))
	} else {
		for pc := range e.Prog.Proofs {
			if e.Prog.Proofs[pc] != rep.Proofs[pc] {
				add(LevelError, CodeProofDrift,
					"pc %d: attached proofs %s, re-verification proves %s",
					pc, e.Prog.Proofs[pc], rep.Proofs[pc])
			}
		}
	}

	if e.Prog.Pure != rep.Pure {
		add(LevelError, CodePurityDrift,
			"attached purity certificate %v, re-verification proves %v",
			e.Prog.Pure, rep.Pure)
	}

	// Interval facts: the lowering folds branches and drops instructions on
	// their word, so drifted facts would miscompile on every native tier.
	// Only the parts it consumes are compared.
	if f := e.Prog.Facts; f == nil || len(f.Live) != len(e.Prog.Insns) || len(f.Branches) != len(e.Prog.Insns) {
		add(LevelError, CodeFactsDrift,
			"program carries no interval facts for its %d instructions", len(e.Prog.Insns))
	} else {
		for pc := range f.Live {
			if f.Live[pc] != rep.Facts.Live[pc] || f.Branches[pc] != rep.Facts.Branches[pc] {
				add(LevelError, CodeFactsDrift,
					"pc %d: attached facts live=%v branch=%d, re-verification proves live=%v branch=%d",
					pc, f.Live[pc], f.Branches[pc], rep.Facts.Live[pc], rep.Facts.Branches[pc])
			}
		}
	}

	// Per-site hazards on the fresh proofs (independent of attachment
	// integrity, so they report even when the attached masks are stale).
	// Uncontracted helpers aggregate to one finding per helper — a program
	// with an unrolled emit loop has dozens of identical sites.
	uncontracted := map[int64]int{}
	for pc, in := range e.Prog.Insns {
		switch in.Op {
		case isa.OpDiv, isa.OpMod:
			if pc < len(rep.Proofs) && rep.Proofs[pc]&isa.ProofDivNonZero == 0 {
				add(LevelWarn, CodeUnprovenDiv,
					"pc %d: %s divisor not provably nonzero; a zero traps the fire at runtime",
					pc, in.Op)
			}
		case isa.OpCall:
			id := in.Imm
			spec, ok := e.Cfg.Helpers[id]
			if !ok {
				// Verify already failed the program if the helper is
				// unknown; reaching here means the id resolved.
				continue
			}
			if contracted(spec.Args) {
				if pc < len(rep.Proofs) && rep.Proofs[pc]&isa.ProofHelperArgs == 0 {
					add(LevelWarn, CodeContractRuntime,
						"pc %d: helper %d (%s) argument contract not statically discharged; the VM checks it on every call",
						pc, id, spec.Name)
				}
			} else {
				uncontracted[id]++
			}
		}
	}
	for _, id := range sortedIDs(uncontracted) {
		add(LevelInfo, CodeContractMissing,
			"helper %d (%s): %d call sites with no declared argument contract; inputs are unconstrained",
			id, e.Cfg.Helpers[id].Name, uncontracted[id])
	}

	for _, w := range rep.Warnings {
		add(LevelInfo, CodeVerifierWarning, "%s", w)
	}
	return rep, out
}

// sortedIDs returns the map's keys in ascending order.
func sortedIDs(m map[int64]int) []int64 {
	ids := make([]int64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// contracted reports whether a declared Args slice actually constrains
// anything (all-Top contracts are no contracts).
func contracted(args []isa.Interval) bool {
	for _, iv := range args {
		if !iv.IsTop() {
			return true
		}
	}
	return false
}

// AnalyzeCorpus runs AnalyzeEntry over every entry and concatenates the
// findings in corpus order.
func AnalyzeCorpus(entries []CorpusEntry) []Finding {
	var out []Finding
	for _, e := range entries {
		_, fs := AnalyzeEntry(e)
		out = append(out, fs...)
	}
	return out
}

// MaxLevel returns the highest level among findings (LevelInfo when empty).
func MaxLevel(findings []Finding) Level {
	max := LevelInfo
	for _, f := range findings {
		if f.Level > max {
			max = f.Level
		}
	}
	return max
}
