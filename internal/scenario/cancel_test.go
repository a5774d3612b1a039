package scenario

import (
	"context"
	"errors"
	"testing"
	"time"

	"kadre/internal/snapshot"
)

// TestRunBoundCtxPreCanceled pins the cheap path: a context already done
// costs no simulation at all and surfaces the cause.
func TestRunBoundCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, _, err := RunBoundCtx(ctx, tinyConfig("pre-canceled", 1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("canceled run returned a partial Result")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("pre-canceled run still took %v", elapsed)
	}
}

// TestRunBoundCtxCancelMidRun cancels from inside the simulation (the
// first snapshot callback) and asserts the contract: an error wrapping
// the cause, no Result, no Bound — nothing for a cache to park — and no
// further snapshot analyses after the cancellation point.
func TestRunBoundCtxCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := tinyConfig("cancel-mid", 2)
	snapshots := 0
	cfg.OnSnapshot = func(_ *snapshot.Snapshot, _ SnapshotStat) {
		snapshots++
		cancel()
	}
	res, bound, err := RunBoundCtx(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil || bound != nil {
		t.Fatalf("canceled run leaked partial state: res=%v bound=%v", res != nil, bound != nil)
	}
	if snapshots != 1 {
		t.Fatalf("%d snapshot analyses ran after cancellation at the first, want 1", snapshots)
	}
}

// TestRunBoundCtxDeadline exercises the deadline flavor: a deadline that
// cannot cover the run yields context.DeadlineExceeded.
func TestRunBoundCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	_, _, err := RunBoundCtx(ctx, tinyConfig("deadline", 3))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestRunBoundCtxCompletedRunIdentical pins determinism: a run whose context
// never fires is byte-identical to a plain Run, elapsed wall-clock aside.
func TestRunBoundCtxCompletedRunIdentical(t *testing.T) {
	cfg := tinyConfig("ctx-det", 4)
	cfg.Churn.Add, cfg.Churn.Remove = 1, 1
	cfg.ChurnPhase = 10 * time.Minute
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctxed, _, err := RunBoundCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Points) != len(ctxed.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(plain.Points), len(ctxed.Points))
	}
	for i := range plain.Points {
		if plain.Points[i] != ctxed.Points[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, plain.Points[i], ctxed.Points[i])
		}
	}
}
