package eventsim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// counter is a Runner that counts its firings.
type counter struct{ fired int }

func (c *counter) Run() { c.fired++ }

// recorder is a Runner that appends its tag to a shared log.
type recorder struct {
	log *[]int
	tag int
}

func (r *recorder) Run() { *r.log = append(*r.log, r.tag) }

// TestCancelAllLeavesNothingPending: cancelled events leave the queue on
// Cancel, so schedule-N/cancel-N brings Pending back to zero with no event
// fired and nothing left for Run to reap.
func TestCancelAllLeavesNothingPending(t *testing.T) {
	s := New(1)
	const n = 1000
	fired := 0
	timers := make([]*Timer, n)
	for i := range timers {
		timers[i] = s.MustSchedule(time.Duration(s.Rand().Intn(5000))*time.Millisecond, func() { fired++ })
	}
	if s.Pending() != n {
		t.Fatalf("Pending() = %d after %d schedules", s.Pending(), n)
	}
	for _, i := range s.Rand().Perm(n) {
		if !timers[i].Cancel() {
			t.Fatalf("Cancel of pending timer %d reported false", i)
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d after cancelling everything, want 0", s.Pending())
	}
	s.Run()
	if fired != 0 || s.Processed() != 0 || s.Now() != 0 {
		t.Fatalf("fired=%d processed=%d now=%v after cancelling everything", fired, s.Processed(), s.Now())
	}
}

// TestStaleHandleCannotTouchLaterEvent: a handle whose event has fired or
// been cancelled is inert, whatever has since been queued into the slot
// its event occupied, and a caller-owned timer re-armed after firing
// carries only its new event.
func TestStaleHandleCannotTouchLaterEvent(t *testing.T) {
	s := New(1)
	firedT := s.MustSchedule(time.Second, func() {})
	cancelledT := s.MustSchedule(time.Second, func() {})
	cancelledT.Cancel()
	s.Run() // firedT fires; the queue is empty again

	// Later events now sit in the queue positions the stale handles' events
	// held, and a re-armed owned timer carries one of them.
	var owned, later counter
	var ownedT Timer
	s.Arm(&ownedT, time.Second, &owned)
	s.Run()
	s.Arm(&ownedT, time.Second, &owned) // the same timer, fired and idle
	laterT := s.MustSchedule(time.Second, later.Run)

	for name, stale := range map[string]*Timer{"fired": firedT, "cancelled": cancelledT} {
		if stale.Pending() {
			t.Errorf("%s timer reports pending", name)
		}
		if stale.Cancel() {
			t.Errorf("Cancel of %s timer reported true", name)
		}
	}
	if s.Pending() != 2 || !laterT.Pending() || !ownedT.Pending() {
		t.Fatalf("stale Cancel disturbed the queue: Pending() = %d, later pending = %v, owned pending = %v",
			s.Pending(), laterT.Pending(), ownedT.Pending())
	}
	s.Run()
	if owned.fired != 2 || later.fired != 1 {
		t.Fatalf("owned fired %d (want 2), later fired %d (want 1)", owned.fired, later.fired)
	}
	var nilTimer *Timer
	if nilTimer.Pending() || nilTimer.Cancel() {
		t.Error("nil timer should be inert")
	}
}

// TestEqualTimeFIFOAcrossEntryPoints: MustSchedule, Arm and the first
// tick of Every draw from one sequence, so equal-time events fire in call
// order whichever queued them.
func TestEqualTimeFIFOAcrossEntryPoints(t *testing.T) {
	s := New(1)
	var log []int
	var owned [4]Timer
	for i := 0; i < 12; i++ {
		i := i
		switch i % 3 {
		case 0:
			s.MustSchedule(time.Second, func() { log = append(log, i) })
		case 1:
			if err := s.Every(time.Second, 2*time.Second, time.Hour, func() bool {
				log = append(log, i)
				return true
			}); err != nil {
				t.Fatal(err)
			}
		case 2:
			s.Arm(&owned[i/3], time.Second, &recorder{&log, i})
		}
	}
	s.Run()
	for i := range log {
		if log[i] != i {
			t.Fatalf("fired %v, want schedule order", log)
		}
	}
	if len(log) != 12 {
		t.Fatalf("fired %d events, want 12", len(log))
	}
}

// TestArmOwnedTimer covers the life cycle of a caller-owned timer: arm,
// cancel, re-arm, fire, re-arm from inside its own Run.
func TestArmOwnedTimer(t *testing.T) {
	s := New(1)
	var tm Timer
	var c counter
	if tm.Pending() || tm.Cancel() {
		t.Fatal("zero Timer should be idle")
	}
	s.Arm(&tm, time.Second, &c)
	if !tm.Pending() || s.Pending() != 1 {
		t.Fatal("armed timer should be pending")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("arming a pending timer should panic")
			}
		}()
		s.Arm(&tm, time.Second, &c)
	}()
	if !tm.Cancel() || tm.Pending() || s.Pending() != 0 {
		t.Fatal("cancel should empty the queue")
	}
	s.Arm(&tm, 2*time.Second, &c)
	s.Run()
	if c.fired != 1 || tm.Pending() || s.Now() != 2*time.Second {
		t.Fatalf("fired=%d pending=%v now=%v", c.fired, tm.Pending(), s.Now())
	}

	// A timer is idle by the time its Run is called, so Run may re-arm it.
	var again rearm
	again.s = s
	s.Arm(&again.tm, time.Second, &again)
	s.Run()
	if again.fired != 3 {
		t.Fatalf("self-re-arming timer fired %d times, want 3", again.fired)
	}
}

type rearm struct {
	s     *Simulator
	tm    Timer
	fired int
}

func (r *rearm) Run() {
	r.fired++
	if r.fired < 3 {
		r.s.Arm(&r.tm, time.Second, r)
	}
}

// TestQueueAgainstSortedOracle drives the heap with a random mix of
// schedules (all three entry points; a one-tick series has no handle to
// cancel), cancellations from the middle and partial runs, and checks the
// firing order against a stable sort of the surviving events by time: the
// (at, seq) contract, independent of the heap's shape.
func TestQueueAgainstSortedOracle(t *testing.T) {
	type planned struct {
		at  time.Duration
		tag int
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New(seed)
		var log []int
		var want []planned // in schedule order
		var handles []*Timer
		alive := map[int]bool{}
		tag := 0
		for round := 0; round < 50; round++ {
			for i := rng.Intn(40); i > 0; i-- {
				delay := time.Duration(rng.Intn(200)) * time.Millisecond
				want = append(want, planned{s.Now() + delay, tag})
				alive[tag] = true
				switch rng.Intn(3) {
				case 0:
					tg := tag
					handles = append(handles, s.MustSchedule(delay, func() { log = append(log, tg) }))
				case 1:
					tg := tag
					at := s.Now() + delay
					if err := s.Every(at, at+1, time.Hour, func() bool {
						log = append(log, tg)
						return true
					}); err != nil {
						t.Fatal(err)
					}
					handles = append(handles, nil)
				case 2:
					tm := new(Timer)
					s.Arm(tm, delay, &recorder{&log, tag})
					handles = append(handles, tm)
				}
				tag++
			}
			for i := rng.Intn(15); i > 0 && tag > 0; i-- {
				victim := rng.Intn(tag)
				if h := handles[victim]; h != nil && h.Cancel() {
					delete(alive, victim)
				}
			}
			s.RunUntil(s.Now() + time.Duration(rng.Intn(150))*time.Millisecond)
			// Everything due has fired, nothing else has.
			live := 0
			for _, p := range want {
				if alive[p.tag] && p.at > s.Now() {
					live++
				}
			}
			if s.Pending() != live {
				t.Fatalf("seed %d round %d: Pending() = %d, want %d", seed, round, s.Pending(), live)
			}
		}
		s.Run()
		var order []planned
		for _, p := range want {
			if alive[p.tag] {
				order = append(order, p)
			}
		}
		sort.SliceStable(order, func(i, j int) bool { return order[i].at < order[j].at })
		if len(log) != len(order) {
			t.Fatalf("seed %d: fired %d events, want %d", seed, len(log), len(order))
		}
		for i := range order {
			if log[i] != order[i].tag {
				t.Fatalf("seed %d: event %d fired tag %d, want %d", seed, i, log[i], order[i].tag)
			}
		}
	}
}

// TestArmFireAllocatesNothing is the budget of the hot path: arming,
// cancelling and firing timers their owners embed in their own records
// allocate nothing once the queue's array has grown.
func TestArmFireAllocatesNothing(t *testing.T) {
	s := New(1)
	var c counter
	var owned [64]Timer
	for i := range owned { // grow the queue's array
		s.Arm(&owned[i], time.Millisecond, &c)
	}
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		s.Arm(&owned[0], time.Millisecond, &c)
		s.Arm(&owned[1], 2*time.Millisecond, &c)
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("Arm+fire allocated %v times per run, want 0", allocs)
	}
	var tm Timer
	allocs = testing.AllocsPerRun(1000, func() {
		s.Arm(&tm, time.Millisecond, &c)
		tm.Cancel()
		s.Arm(&tm, time.Millisecond, &c)
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("Arm/Cancel/fire on an owned timer allocated %v times per run, want 0", allocs)
	}
	// A handle is the event itself: one allocation, not two.
	nop := func() {}
	allocs = testing.AllocsPerRun(1000, func() {
		s.MustSchedule(time.Millisecond, nop)
		s.Run()
	})
	if allocs != 1 {
		t.Fatalf("MustSchedule+fire allocated %v times per run, want 1", allocs)
	}
}
