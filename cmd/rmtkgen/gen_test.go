package main

import (
	"bytes"
	"math/rand"
	"os"
	"testing"

	"rmtk/internal/isa"
	"rmtk/internal/verifier"
)

func testCorpus(t *testing.T) []verifier.CorpusEntry {
	t.Helper()
	entries, err := corpus()
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

// TestGenerateDeterministic: two runs over the same corpus must produce
// byte-identical output — the property the codegen-drift CI gate relies on.
func TestGenerateDeterministic(t *testing.T) {
	entries := testCorpus(t)
	a, statsA, err := Generate(entries)
	if err != nil {
		t.Fatal(err)
	}
	b, statsB, err := Generate(entries)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two Generate runs over the same corpus differ")
	}
	if statsA != statsB {
		t.Errorf("stats differ across runs: %+v vs %+v", statsA, statsB)
	}
	if statsA.Compiled == 0 {
		t.Error("corpus compiled zero programs")
	}
}

// TestGenerateOrderInsensitive: permuting the corpus (as a map-iteration
// feed would) must not change a byte — output is keyed and sorted by
// content hash, never input position.
func TestGenerateOrderInsensitive(t *testing.T) {
	entries := testCorpus(t)
	want, _, err := Generate(entries)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 4; trial++ {
		shuffled := append([]verifier.CorpusEntry(nil), entries...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		got, _, err := Generate(shuffled)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("trial %d: shuffled corpus changed the generated output", trial)
		}
	}
}

// TestGeneratedFileIsFresh is the local form of the codegen-drift gate:
// regenerating over today's corpus must reproduce the committed
// internal/aot/gen_datapaths.go byte for byte.
func TestGeneratedFileIsFresh(t *testing.T) {
	want, err := os.ReadFile("../../internal/aot/gen_datapaths.go")
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Generate(testCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Error("internal/aot/gen_datapaths.go is stale — regenerate with `go run ./cmd/rmtkgen`")
	}
}

// TestGenerateSkipsUnemittable: tail-call cascades and constant-negative
// vector indices lower fine (the JIT runs them) but cannot be printed as Go;
// Generate must skip them — counting them in Stats.Skipped — and still
// compile the rest of the corpus.
func TestGenerateSkipsUnemittable(t *testing.T) {
	callee := &isa.Program{Name: "callee", Insns: isa.MustAssemble("mov r0, r1\nexit")}
	cfg := verifier.Config{Tails: map[int64]*isa.Program{4: callee}}
	entries := []verifier.CorpusEntry{
		{Prog: callee, Cfg: cfg},
		{Prog: &isa.Program{Name: "tail", Insns: isa.MustAssemble("tailcall 4"), Tails: []int64{4}}, Cfg: cfg},
		{Prog: &isa.Program{Name: "neg-index", Insns: []isa.Instr{
			{Op: isa.OpVecLdHist, Dst: 0, Src: 1, Imm: 4}, // length unknown until run time
			{Op: isa.OpVecSet, Dst: 0, Src: 1, Imm: -5},
			{Op: isa.OpMovImm, Dst: 0, Imm: 0},
			{Op: isa.OpExit},
		}}, Cfg: cfg},
	}
	src, stats, err := Generate(entries)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Stats{Entries: 3, Skipped: 2, Compiled: 1}); stats != want {
		t.Errorf("stats = %+v, want %+v", stats, want)
	}
	if !bytes.Contains(src, []byte(`"callee"`)) || bytes.Contains(src, []byte(`"tail"`)) || bytes.Contains(src, []byte(`"neg-index"`)) {
		t.Errorf("generated registry should hold callee only:\n%s", src)
	}
}
