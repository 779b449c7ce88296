package ctrl

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"rmtk/internal/core"
	"rmtk/internal/fault"
	"rmtk/internal/table"
	"rmtk/internal/verifier"
)

// recordedSleeps returns a BackoffConfig whose Sleep records instead of
// sleeping, keeping retry tests instant and deterministic.
func recordedSleeps(attempts int) (BackoffConfig, *[]time.Duration) {
	var slept []time.Duration
	cfg := BackoffConfig{
		Attempts:   attempts,
		Base:       time.Millisecond,
		Factor:     2,
		Max:        4 * time.Millisecond,
		JitterFrac: 0, // exact delays below
		Sleep:      func(d time.Duration) { slept = append(slept, d) },
	}
	return cfg, &slept
}

func TestRetrySucceedsAfterTransients(t *testing.T) {
	cfg, slept := recordedSleeps(5)
	calls := 0
	err := Retry(cfg, nil, func() error {
		calls++
		if calls < 3 {
			return fmt.Errorf("transient %d", calls)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	// Exponential: 1ms then 2ms, capped at 4ms (never reached here).
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond}
	if len(*slept) != len(want) || (*slept)[0] != want[0] || (*slept)[1] != want[1] {
		t.Fatalf("sleeps = %v, want %v", *slept, want)
	}
}

func TestRetryExhaustionWrapsLastError(t *testing.T) {
	cfg, slept := recordedSleeps(4)
	boom := errors.New("boom")
	err := Retry(cfg, nil, func() error { return boom })
	if !errors.Is(err, ErrRetriesExhausted) || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want ErrRetriesExhausted wrapping boom", err)
	}
	// 4 attempts → 3 sleeps: 1ms, 2ms, 4ms (cap).
	if len(*slept) != 3 || (*slept)[2] != 4*time.Millisecond {
		t.Fatalf("sleeps = %v, want 3 sleeps capped at 4ms", *slept)
	}
}

func TestRetryPermanentStopsImmediately(t *testing.T) {
	cfg, slept := recordedSleeps(5)
	perm := errors.New("permanent")
	calls := 0
	err := Retry(cfg, func(e error) bool { return errors.Is(e, perm) }, func() error {
		calls++
		return perm
	})
	if !errors.Is(err, perm) || errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want bare permanent error", err)
	}
	if calls != 1 || len(*slept) != 0 {
		t.Fatalf("calls=%d sleeps=%v, want one call and no sleeps", calls, *slept)
	}
}

// TestPushModelRetrySurvivesInjectedSwapFaults is the control-plane half of
// the chaos story: the fault injector fails the first two model swaps
// (fault.TargetModelSwap) and the backoff loop pushes through.
func TestPushModelRetrySurvivesInjectedSwapFaults(t *testing.T) {
	p := newPlane(t)
	id := p.K.RegisterModel(&core.FuncModel{Fn: func([]int64) int64 { return 0 }, Feats: 1})
	p.K.SetFaultInjector(fault.NewInjector(1, fault.Rule{
		Target: fault.TargetModelSwap,
		Kind:   fault.KindModelSwapFail,
		Count:  2,
	}))

	next := &core.FuncModel{Fn: func([]int64) int64 { return 7 }, Feats: 1}
	cfg, slept := recordedSleeps(5)
	if err := p.PushModelRetry(id, next, 0, 0, cfg); err != nil {
		t.Fatalf("push with retry: %v", err)
	}
	if len(*slept) != 2 {
		t.Fatalf("sleeps = %v, want 2 (one per injected swap fault)", *slept)
	}
	m, err := p.K.Model(id)
	if err != nil || m.Predict(nil) != 7 {
		t.Fatal("retried push did not land")
	}

	// Without retries the same fault is surfaced as errors.Is-able.
	p.K.SetFaultInjector(fault.NewInjector(1, fault.Rule{
		Target: fault.TargetModelSwap,
		Kind:   fault.KindModelSwapFail,
		Count:  1,
	}))
	if err := p.PushModel(id, next, 0, 0); !errors.Is(err, fault.ErrInjectedSwap) {
		t.Fatalf("bare push err = %v, want ErrInjectedSwap", err)
	}
}

// TestPushModelRetryPermanentBudget: budget violations must not be retried.
func TestPushModelRetryPermanentBudget(t *testing.T) {
	p := newPlane(t)
	id := p.K.RegisterModel(&core.FuncModel{Fn: func([]int64) int64 { return 0 }, Feats: 1, Ops: 10})
	big := &core.FuncModel{Fn: func([]int64) int64 { return 1 }, Feats: 1, Ops: 1000}
	cfg, slept := recordedSleeps(5)
	if err := p.PushModelRetry(id, big, 100, 0, cfg); !errors.Is(err, verifier.ErrOpsBudget) {
		t.Fatalf("err = %v, want ErrOpsBudget", err)
	}
	if len(*slept) != 0 {
		t.Fatalf("budget violation slept %v; must fail immediately", *slept)
	}
	// Unknown model id is likewise permanent.
	if err := p.PushModelRetry(999, big, 0, 0, cfg); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("unknown id err = %v, want ErrNotFound", err)
	}
	if len(*slept) != 0 {
		t.Fatalf("unknown id slept %v; must fail immediately", *slept)
	}
}

func TestCtrlSentinelErrors(t *testing.T) {
	p := newPlane(t)
	if _, _, err := p.CreateTable("t", "hook/x", 0); err != nil {
		t.Fatal(err)
	}
	if err := p.RemoveEntry("t", &table.Entry{Key: 1}); !errors.Is(err, ErrNoEntry) {
		t.Fatalf("remove err = %v, want ErrNoEntry", err)
	}
	if err := p.UpdateAction("t", 1, table.Action{}); !errors.Is(err, ErrNoEntry) {
		t.Fatalf("update err = %v, want ErrNoEntry", err)
	}
}

// TestErrBudgetExceededClassification: budget rejections wrap both the
// umbrella ErrBudgetExceeded sentinel and the specific verifier sentinel, on
// every push path, and the retry loop treats them as permanent.
func TestErrBudgetExceededClassification(t *testing.T) {
	p := newPlane(t)
	id := p.K.RegisterModel(&core.FuncModel{Fn: func([]int64) int64 { return 0 }, Feats: 1})

	costly := &core.FuncModel{Fn: func([]int64) int64 { return 1 }, Feats: 1, Ops: 1000}
	err := p.PushModel(id, costly, 100, 0)
	if !errors.Is(err, ErrBudgetExceeded) || !errors.Is(err, verifier.ErrOpsBudget) {
		t.Fatalf("ops err = %v, want ErrBudgetExceeded and ErrOpsBudget", err)
	}
	fat := &core.FuncModel{Fn: func([]int64) int64 { return 1 }, Feats: 1, Size: 1 << 20}
	err = p.PushModel(id, fat, 0, 1024)
	if !errors.Is(err, ErrBudgetExceeded) || !errors.Is(err, verifier.ErrMemBudget) {
		t.Fatalf("mem err = %v, want ErrBudgetExceeded and ErrMemBudget", err)
	}
	// The retry loop classifies the umbrella sentinel as permanent: zero
	// sleeps regardless of which budget tripped.
	cfg, slept := recordedSleeps(5)
	if err := p.PushModelRetry(id, fat, 0, 1024, cfg); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("retry err = %v", err)
	}
	if len(*slept) != 0 {
		t.Fatalf("budget violation slept %v; must fail immediately", *slept)
	}
	// A transient swap fault is NOT classified as a budget error.
	if errors.Is(errors.Join(ErrRetriesExhausted), ErrBudgetExceeded) {
		t.Fatal("unrelated error classified as budget exceeded")
	}
}
