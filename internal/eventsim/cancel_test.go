package eventsim

import (
	"context"
	"errors"
	"testing"
	"time"
)

// chain schedules a self-perpetuating event chain of n events spaced one
// second apart and returns a pointer to the fired count.
func chain(s *Simulator, n int) *int {
	fired := new(int)
	var step func()
	step = func() {
		*fired++
		if *fired < n {
			s.MustSchedule(time.Second, step)
		}
	}
	s.MustSchedule(time.Second, step)
	return fired
}

// TestCancelStopsWithinOneBatch is the kernel half of the cancellation
// contract: once the context fires, Run and RunUntil stop within one
// event batch, however much work remains queued.
func TestCancelStopsWithinOneBatch(t *testing.T) {
	const batch = DefaultCancelBatch
	const cancelAt = 100
	for _, mode := range []string{"run", "rununtil"} {
		s := New(1)
		ctx, cancel := context.WithCancel(context.Background())
		s.SetCancel(ctx)
		fired := chain(s, 100000)
		s.MustSchedule(time.Duration(cancelAt)*time.Second+time.Millisecond, cancel)
		if mode == "run" {
			s.Run()
		} else {
			s.RunUntil(200000 * time.Second)
		}
		if !errors.Is(s.Err(), context.Canceled) {
			t.Fatalf("%s: Err() = %v, want context.Canceled", mode, s.Err())
		}
		if *fired < cancelAt || *fired > cancelAt+batch {
			t.Fatalf("%s: %d events fired after cancellation at %d, want within one batch of %d",
				mode, *fired-cancelAt, cancelAt, batch)
		}
		if mode == "rununtil" && s.Now() >= 200000*time.Second {
			t.Fatalf("%s: clock advanced to the deadline despite cancellation", mode)
		}
	}
}

// TestPreCanceledRunFiresNothing pins the entry check: a context already
// done when the run starts fires zero events.
func TestPreCanceledRunFiresNothing(t *testing.T) {
	s := New(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.SetCancel(ctx)
	fired := chain(s, 10)
	s.RunUntil(time.Hour)
	if *fired != 0 {
		t.Fatalf("%d events fired under a pre-canceled context, want 0", *fired)
	}
	if s.Err() == nil {
		t.Fatal("Err() = nil, want the cancellation cause")
	}
}

// TestUnfiredCancelIsInvisible pins determinism: installing a context
// that never fires changes nothing — same events, same clock, nil Err —
// compared to a kernel with no cancel context at all.
func TestUnfiredCancelIsInvisible(t *testing.T) {
	run := func(withCtx bool) (int, time.Duration, uint64) {
		s := New(7)
		if withCtx {
			s.SetCancel(context.Background())
		}
		fired := chain(s, 4*DefaultCancelBatch) // polls at several batch boundaries
		s.RunUntil(time.Hour)
		return *fired, s.Now(), s.Processed()
	}
	f1, now1, p1 := run(false)
	f2, now2, p2 := run(true)
	if f1 != f2 || now1 != now2 || p1 != p2 {
		t.Fatalf("cancel context perturbed a completing run: (%d,%v,%d) vs (%d,%v,%d)",
			f1, now1, p1, f2, now2, p2)
	}
	s := New(1)
	s.SetCancel(context.Background())
	chain(s, 3)
	s.Run()
	if s.Err() != nil {
		t.Fatalf("completed run left Err() = %v", s.Err())
	}
}
