package core

import (
	"testing"

	"rmtk/internal/isa"
	"rmtk/internal/table"
)

// twoKeySource touches the context of two keys in one run, R1 and R1+1: it
// counts the runs on R1's field 0, stores R2 in field 0 of R1+1 and pushes it
// to R1+1's history, then reads R1's count back after touching R1+1 and asks
// rmt_hist_len for R1+1's history. The verdict is count·10000 + R2·100 + the
// history length.
const twoKeySource = `
        mov     r6, r1
        mov     r7, r1
        addimm  r7, 1
        ldctxt  r8, r6, 0
        addimm  r8, 1
        stctxt  r6, 0, r8
        stctxt  r7, 0, r2
        histpush r7, r2
        ldctxt  r8, r6, 0
        ldctxt  r9, r7, 0
        mov     r1, r7
        call    5
        mulimm  r8, 10000
        mulimm  r9, 100
        add     r0, r8
        add     r0, r9
        exit`

// TestCtxRecordPerRun: a run resolves a context record once and keeps it for
// the run (env.ctx), so these pin what that must not change. A program that
// touches two keys in one run reads its own writes to each; a Drop between
// two fires is seen by the second, which recreates the record; and a checked
// fire (both runs under write capture) answers as an unchecked one does, its
// own pending history push counted by rmt_hist_len.
func TestCtxRecordPerRun(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mode  ExecMode
		check bool
	}{{"interp", ModeInterp, false}, {"jit", ModeJIT, false}, {"jit/checked", ModeJIT, true}} {
		t.Run(tc.name, func(t *testing.T) {
			k := newTestKernel(t, Config{Mode: tc.mode, CtxHistory: 4})
			var sen *Sentinel
			if tc.check {
				sen = k.AttachSentinel(SentinelConfig{SampleEvery: 1})
			}
			tb := table.New("ctx", "hook/ctx", table.MatchExact)
			if _, err := k.CreateTable(tb); err != nil {
				t.Fatal(err)
			}
			id := install(t, k, &isa.Program{
				Name:    "two_keys",
				Insns:   isa.MustAssemble(twoKeySource),
				Helpers: []int64{HelperHistLen},
			})
			if err := tb.Insert(&table.Entry{Key: 10, Action: table.Action{Kind: table.ActionProgram, ProgID: id}}); err != nil {
				t.Fatal(err)
			}
			fire := func(v, want int64) {
				t.Helper()
				if res := k.Fire("hook/ctx", 10, v, 0); res.Trapped || res.Verdict != want {
					t.Fatalf("fire with %d: verdict %d (trapped %v, %v), want %d", v, res.Verdict, res.Trapped, res.TrapErr, want)
				}
			}
			fire(7, 1*10000+7*100+1)
			fire(8, 2*10000+8*100+2)
			k.Ctx().Drop(10)
			fire(9, 1*10000+9*100+3) // key 10 starts over; key 11 keeps its history
			k.Ctx().Drop(11)
			fire(6, 2*10000+6*100+1)
			if got := k.Ctx().Keys(); len(got) != 2 || got[0] != 10 || got[1] != 11 {
				t.Fatalf("keys %v, want [10 11]", got)
			}
			if c, v, n := k.Ctx().Load(10, 0), k.Ctx().Load(11, 0), k.Ctx().HistLen(11); c != 2 || v != 6 || n != 1 {
				t.Fatalf("count %d, value %d, history %d; want 2, 6, 1", c, v, n)
			}
			if tc.check {
				if s := sen.Counts(); s.Sampled != 4 || s.Divergences != 0 {
					t.Fatalf("sentinel %+v: want 4 checked fires, none diverged", s)
				}
			}
		})
	}
}
