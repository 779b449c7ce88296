package ctrl

import (
	"errors"
	"fmt"
	"testing"

	"rmtk/internal/core"
	"rmtk/internal/fault"
	"rmtk/internal/table"
	"rmtk/internal/verifier"
)

func TestRetrySucceedsAfterTransients(t *testing.T) {
	calls := 0
	err := Retry(nil, func() error {
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
}

func TestRetryExhaustionWrapsLastError(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	err := Retry(nil, func() error { calls++; return boom })
	if !errors.Is(err, ErrRetriesExhausted) || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want ErrRetriesExhausted wrapping boom", err)
	}
	if calls != retryAttempts {
		t.Fatalf("calls = %d, want %d", calls, retryAttempts)
	}
}

func TestRetryPermanentStopsImmediately(t *testing.T) {
	perm := errors.New("permanent")
	calls := 0
	err := Retry(func(e error) bool { return errors.Is(e, perm) }, func() error {
		calls++
		return perm
	})
	if !errors.Is(err, perm) || errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want bare permanent error", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want one", calls)
	}
}

// TestPushModelRetrySurvivesInjectedSwapFaults is the control-plane half of
// the chaos story: the fault injector fails the first two model swaps
// (fault.TargetModelSwap) and the retry loop pushes through.
func TestPushModelRetrySurvivesInjectedSwapFaults(t *testing.T) {
	p := newPlane(t)
	id := p.K.RegisterModel(&core.FuncModel{Fn: func([]int64) int64 { return 0 }, Feats: 1})
	p.K.SetFaultInjector(fault.NewInjector(1, fault.Rule{
		Target: fault.TargetModelSwap,
		Kind:   fault.KindModelSwapFail,
		Count:  2,
	}))

	next := &core.FuncModel{Fn: func([]int64) int64 { return 7 }, Feats: 1}
	if err := p.PushModelRetry(id, next, 0, 0); err != nil {
		t.Fatalf("push with retry: %v", err)
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
	if err := p.PushModelRetry(id, big, 100, 0); !errors.Is(err, verifier.ErrOpsBudget) || errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want a bare ErrOpsBudget", err)
	}
	// Unknown model id is likewise permanent.
	if err := p.PushModelRetry(999, big, 0, 0); !errors.Is(err, core.ErrNotFound) || errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("unknown id err = %v, want a bare ErrNotFound", err)
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
	// The retry loop classifies the umbrella sentinel as permanent: no
	// retries regardless of which budget tripped.
	if err := p.PushModelRetry(id, fat, 0, 1024); !errors.Is(err, ErrBudgetExceeded) || errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("retry err = %v", err)
	}
	// A transient swap fault is NOT classified as a budget error.
	if errors.Is(errors.Join(ErrRetriesExhausted), ErrBudgetExceeded) {
		t.Fatal("unrelated error classified as budget exceeded")
	}
}
