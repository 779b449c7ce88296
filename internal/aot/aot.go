// Package aot is the registry of ahead-of-time compiled RMT programs — the
// third execution tier of the kernel (AOT → JIT → interpreter), realizing
// ROADMAP item 1's "AOT compilation of verified programs to generated Go".
//
// cmd/rmtkgen compiles a corpus of admitted programs at build time and emits
// a generated source file (gen_datapaths.go) whose init function Registers
// one native Go function per program, keyed by a content hash over the
// program's admission artifacts. At install time internal/core hashes the
// freshly admitted program and, on a registry hit, binds the native function
// as the program's preferred engine; misses (new programs, reswapped
// programs whose bytes or proofs changed) silently fall back to the JIT.
// Because the hash covers the proof masks, helper contracts and static step
// certificate along with the instruction bytes, a generated function can
// never be applied to a program it was not compiled from.
package aot

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"sync"

	"rmtk/internal/isa"
	"rmtk/internal/vm"
)

// Scratch is the pooled per-invocation buffer set of a generated function:
// the scratch stack, the vector-register backing buffers, the aliasing
// scratch for matmul with dst == src and the argument array handed to helper
// calls. Generated code indexes these directly, so an invocation allocates
// nothing. Like vm.State, stack contents persist across invocations (the
// verifier demands write-before-read, so prior contents are unobservable).
type Scratch struct {
	Stack [isa.StackWords]int64
	Vbuf  [isa.NumVRegs][isa.MaxVecLen]int64
	Tmp   [isa.MaxVecLen]int64
	Args  [5]int64 // R1..R5 of the helper call under way
}

// Func is a compiled program: it runs against env with hook arguments
// (r1, r2, r3) and returns (R0 at exit, executed steps, trap error). The
// step count matches the bytecode engines' executed-instruction semantics
// (each superinstruction charges the count it was fused from).
type Func func(env vm.Env, m *Scratch, r1, r2, r3 int64) (int64, int64, error)

// entry pairs a compiled function with the source program's name at
// generation time (diagnostics only — lookup is by hash alone).
type entry struct {
	name string
	fn   Func
}

var (
	mu       sync.RWMutex
	registry = map[string]entry{}
)

// Register binds a compiled function to a program hash. Generated code calls
// it from init; later registrations for the same hash win (last generated
// file loaded takes precedence, which cannot happen within one binary).
func Register(hash, name string, fn Func) {
	mu.Lock()
	registry[hash] = entry{name: name, fn: fn}
	mu.Unlock()
}

// Lookup resolves a program hash to its compiled function.
func Lookup(hash string) (Func, bool) {
	mu.RLock()
	e, ok := registry[hash]
	mu.RUnlock()
	return e.fn, ok
}

// Programs lists the registered hashes with their generation-time program
// names, sorted by hash (rmtkctl and tests enumerate the corpus with it).
func Programs() map[string]string {
	mu.RLock()
	defer mu.RUnlock()
	out := make(map[string]string, len(registry))
	for h, e := range registry {
		out[h] = e.name
	}
	return out
}

// Hash fingerprints an admitted program for registry lookup: the encoded
// instruction stream plus every admission artifact the generated code was
// specialized against — proof masks (check elision), helper contracts
// (inlined range checks), the static step certificate and the purity bit.
// The program name is deliberately excluded so structurally identical
// programs admitted under different names (per-PID prefetch datapaths, one
// per tenant) share one compiled function.
func Hash(p *isa.Program) string {
	h := sha256.New()
	h.Write(p.Encode())
	var buf [8]byte
	for _, pm := range p.Proofs {
		binary.LittleEndian.PutUint64(buf[:], uint64(pm))
		h.Write(buf[:])
	}
	ids := make([]int64, 0, len(p.HelperContracts))
	for id := range p.HelperContracts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		binary.LittleEndian.PutUint64(buf[:], uint64(id))
		h.Write(buf[:])
		for _, c := range p.HelperContracts[id] {
			binary.LittleEndian.PutUint64(buf[:], uint64(c.Lo))
			h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], uint64(c.Hi))
			h.Write(buf[:])
		}
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(p.StaticSteps))
	h.Write(buf[:])
	if p.Pure {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}
