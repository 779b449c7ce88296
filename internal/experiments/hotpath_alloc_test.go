package experiments

import (
	"testing"

	"rmtk/internal/core"
)

// TestBytecodeFiresAllocateNothing: an uncached, unsampled fire of the
// fixture borrows everything it needs (invocation, env, machine state, the
// JIT's per-run record) from pools on every tier, not just the AOT one.
func TestBytecodeFiresAllocateNothing(t *testing.T) {
	for _, mode := range []core.ExecMode{core.ModeJIT, core.ModeInterp} {
		k, err := NewHotPathKernel(mode, false)
		if err != nil {
			t.Fatal(err)
		}
		key := int64(0)
		fire := func() {
			if res := k.Fire(HotPathHook, key, key&7, 3); res.Trapped || res.CacheHit {
				t.Fatalf("%s: fixture fire = %+v", mode, res)
			}
			key = (key + 1) % HotPathKeys
		}
		fire() // fill the pools
		if n := testing.AllocsPerRun(500, fire); n != 0 {
			t.Errorf("%s: %v allocs per uncached fire, want 0", mode, n)
		}
	}
}
