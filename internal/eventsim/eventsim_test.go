package eventsim

import (
	"errors"
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.MustSchedule(3*time.Second, func() { order = append(order, 3) })
	s.MustSchedule(1*time.Second, func() { order = append(order, 1) })
	s.MustSchedule(2*time.Second, func() { order = append(order, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 3*time.Second {
		t.Errorf("Now() = %v, want 3s", s.Now())
	}
}

func TestEqualTimeFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.MustSchedule(time.Second, func() { order = append(order, i) })
	}
	s.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("equal-time events fired out of schedule order: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	var fired []time.Duration
	s.MustSchedule(time.Second, func() {
		fired = append(fired, s.Now())
		s.MustSchedule(time.Second, func() {
			fired = append(fired, s.Now())
		})
	})
	s.Run()
	if len(fired) != 2 || fired[0] != time.Second || fired[1] != 2*time.Second {
		t.Fatalf("fired = %v, want [1s 2s]", fired)
	}
}

func TestZeroDelayRunsAtCurrentTime(t *testing.T) {
	s := New(1)
	var at time.Duration = -1
	s.MustSchedule(5*time.Second, func() {
		s.MustSchedule(0, func() { at = s.Now() })
	})
	s.Run()
	if at != 5*time.Second {
		t.Fatalf("zero-delay event ran at %v, want 5s", at)
	}
}

// TestSchedulePastFails: MustSchedule and Arm panic on a negative delay
// or a nil body, and Every refuses a start in the past with ErrPastTime;
// none of them queues anything.
func TestSchedulePastFails(t *testing.T) {
	s := New(1)
	s.RunUntil(10 * time.Second)
	var tm Timer
	var c counter
	for name, bad := range map[string]func(){
		"MustSchedule negative delay": func() { s.MustSchedule(-time.Second, func() {}) },
		"MustSchedule nil fn":         func() { s.MustSchedule(time.Second, nil) },
		"Arm negative delay":          func() { s.Arm(&tm, -time.Second, &c) },
		"Arm nil runner":              func() { s.Arm(&tm, time.Second, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			bad()
		}()
	}
	if err := s.Every(5*time.Second, time.Minute, time.Second, func() bool { return true }); !errors.Is(err, ErrPastTime) {
		t.Errorf("Every starting in the past: error %v, want ErrPastTime", err)
	}
	if s.Pending() != 0 || tm.Pending() {
		t.Fatalf("rejected calls left %d events queued", s.Pending())
	}
}

func TestTimerCancel(t *testing.T) {
	s := New(1)
	fired := false
	timer := s.MustSchedule(time.Second, func() { fired = true })
	if !timer.Pending() {
		t.Error("timer should be pending before firing")
	}
	if !timer.Cancel() {
		t.Error("first cancel should report true")
	}
	if timer.Cancel() {
		t.Error("second cancel should report false")
	}
	s.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if timer.Pending() {
		t.Error("cancelled timer should not be pending")
	}
}

func TestCancelAfterFire(t *testing.T) {
	s := New(1)
	timer := s.MustSchedule(time.Second, func() {})
	s.Run()
	if timer.Pending() {
		t.Error("fired timer should not be pending")
	}
	if timer.Cancel() {
		t.Error("cancelling a fired timer should report false")
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var fired []time.Duration
	for _, d := range []time.Duration{1, 2, 3, 4, 5} {
		d := d * time.Second
		s.MustSchedule(d, func() { fired = append(fired, d) })
	}
	s.RunUntil(3 * time.Second)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if s.Now() != 3*time.Second {
		t.Errorf("Now() = %v, want 3s", s.Now())
	}
	s.RunUntil(10 * time.Second)
	if len(fired) != 5 {
		t.Fatalf("fired %d events total, want 5", len(fired))
	}
	if s.Now() != 10*time.Second {
		t.Errorf("Now() = %v, want 10s (deadline advances clock)", s.Now())
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	s := New(1)
	fired := false
	s.MustSchedule(3*time.Second, func() { fired = true })
	s.RunUntil(3 * time.Second)
	if !fired {
		t.Error("event at exactly the deadline should fire")
	}
}

func TestStop(t *testing.T) {
	s := New(1)
	var count int
	for i := 0; i < 10; i++ {
		s.MustSchedule(time.Duration(i+1)*time.Second, func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("processed %d events after Stop, want 3", count)
	}
	// Run can be resumed afterwards.
	s.Run()
	if count != 10 {
		t.Fatalf("processed %d events after resume, want 10", count)
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() []int64 {
		s := New(99)
		var draws []int64
		for i := 0; i < 100; i++ {
			delay := time.Duration(s.Rand().Intn(1000)) * time.Millisecond
			s.MustSchedule(delay, func() {
				draws = append(draws, s.Rand().Int63())
			})
		}
		s.Run()
		return draws
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at draw %d", i)
		}
	}
}

func TestProcessedAndPendingCounters(t *testing.T) {
	s := New(1)
	for i := 0; i < 5; i++ {
		s.MustSchedule(time.Duration(i)*time.Second, func() {})
	}
	cancel := s.MustSchedule(10*time.Second, func() {})
	cancel.Cancel()
	if s.Pending() != 5 {
		t.Errorf("Pending() = %d, want 5 live events", s.Pending())
	}
	s.Run()
	if s.Processed() != 5 {
		t.Errorf("Processed() = %d, want 5", s.Processed())
	}
	if s.Pending() != 0 {
		t.Errorf("Pending() = %d after Run, want 0", s.Pending())
	}
}

func TestManyEventsHeapStress(t *testing.T) {
	s := New(5)
	const n = 20000
	var count int
	for i := 0; i < n; i++ {
		delay := time.Duration(s.Rand().Intn(1000000)) * time.Microsecond
		s.MustSchedule(delay, func() { count++ })
	}
	var last time.Duration
	for s.Step() {
		if s.Now() < last {
			t.Fatal("clock went backwards")
		}
		last = s.Now()
	}
	if count != n {
		t.Fatalf("processed %d, want %d", count, n)
	}
}
