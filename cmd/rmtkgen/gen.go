package main

import (
	"bytes"
	"errors"
	"fmt"
	"go/format"
	"sort"

	"rmtk/internal/aot"
	"rmtk/internal/aot/lower"
	"rmtk/internal/verifier"
)

// Stats summarizes one generation run.
type Stats struct {
	// Entries is the raw corpus size; Deduped counts entries folded into an
	// already-seen hash; Skipped counts programs the AOT tier declines
	// (tail-call cascades, shapes the emitter cannot express); Compiled is
	// the number of emitted functions.
	Entries, Deduped, Skipped, Compiled int
}

// compiled is one deduplicated program ready for emission.
type compiled struct {
	hash string
	name string // lexicographically smallest name among entries sharing the hash
	prog *lower.Prog
}

// Generate compiles a corpus into the generated registry source. The result
// is a deterministic function of the entries' contents: programs are
// deduplicated and sorted by content hash and every name tie is broken
// lexicographically, so permuting the input order (or the map iteration
// feeding it) cannot change a byte of output.
func Generate(entries []verifier.CorpusEntry) ([]byte, Stats, error) {
	var stats Stats
	stats.Entries = len(entries)
	byHash := map[string]*compiled{}
	for _, e := range entries {
		h := aot.Hash(e.Prog)
		if prev, ok := byHash[h]; ok {
			stats.Deduped++
			if e.Prog.Name < prev.name {
				prev.name = e.Prog.Name
			}
			continue
		}
		// Lowered from the artifacts the admitted program carries, the
		// same route vm.Compile takes.
		lp, err := lower.Lower(e.Prog)
		if err == nil {
			err = lp.Emittable()
		}
		if err != nil {
			if errors.Is(err, lower.ErrTailCall) || errors.Is(err, lower.ErrUnsupported) {
				stats.Skipped++
				continue
			}
			return nil, stats, fmt.Errorf("program %q: %w", e.Prog.Name, err)
		}
		byHash[h] = &compiled{hash: h, name: e.Prog.Name, prog: lp}
	}
	progs := make([]*compiled, 0, len(byHash))
	for _, c := range byHash {
		progs = append(progs, c)
	}
	sort.Slice(progs, func(i, j int) bool { return progs[i].hash < progs[j].hash })
	stats.Compiled = len(progs)

	var body bytes.Buffer
	needsFmt := false
	for _, c := range progs {
		body.WriteString("\n")
		res := lower.EmitFunc(&body, c.prog, fnName(c.hash))
		needsFmt = needsFmt || res.NeedsFmt
	}

	var b bytes.Buffer
	b.WriteString("// Code generated by rmtkgen. DO NOT EDIT.\n")
	b.WriteString("//\n")
	b.WriteString("// One native function per admitted datapath program, registered by the\n")
	b.WriteString("// content hash of the program's instruction bytes and admission artifacts.\n")
	b.WriteString("// Regenerate with: go run ./cmd/rmtkgen\n\n")
	b.WriteString("package aot\n\n")
	if needsFmt {
		b.WriteString("import (\n\t\"fmt\"\n\n\t\"rmtk/internal/vm\"\n)\n\n")
	} else {
		b.WriteString("import \"rmtk/internal/vm\"\n\n")
	}
	b.WriteString("func init() {\n")
	for _, c := range progs {
		fmt.Fprintf(&b, "\tRegister(%q, %q, %s)\n", c.hash, c.name, fnName(c.hash))
	}
	b.WriteString("}\n")
	b.Write(body.Bytes())

	src, err := format.Source(b.Bytes())
	if err != nil {
		return nil, stats, fmt.Errorf("generated source does not parse: %w\n%s", err, b.Bytes())
	}
	return src, stats, nil
}

// fnName derives the emitted function name from the program hash (12 hex
// digits keep names short while staying collision-free for any plausible
// corpus; the full hash still keys the registry).
func fnName(hash string) string { return "prog_" + hash[:12] }
