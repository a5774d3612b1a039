// Package eventsim provides a deterministic discrete-event simulation
// kernel: a virtual clock, a 4-ary-heap event queue, cancellable timers,
// and a seeded random number generator. It replaces PeerSim's event-driven
// engine from the paper. All state is single-goroutine; the kernel itself
// never spawns goroutines, which makes every run exactly reproducible from
// its seed.
//
// There are three ways into the queue: MustSchedule queues a closure and
// hands back its timer, Arm queues a Runner on a timer the caller owns,
// and Every runs a periodic series. The kernel owns no memory of its own
// beyond the queue: a timer belongs to whoever made it. Events fire in
// (time, schedule order): every MustSchedule and Arm call draws the next
// sequence number, so equal-time events run in the order they were
// scheduled whichever of the two queued them. A series draws one when it
// is set up, for its first tick, and one after each tick that continues
// it, for the next: the events a tick queues come before its successor,
// as if the tick re-armed itself last.
//
// Two queue designs were measured on the Sim E traffic workload
// (sim-traffic, 40 nodes, k 5–30), where the heap is 12–15 % of the CPU
// profile, and refuted; neither should be retried without a new reason.
// Lazy cancellation (Cancel leaves a tombstone that Step skips) cost
// +15–35 % serial CPU: most cancelled events are 2 s RPC timeouts, which
// swamp a queue of 50 ms deliveries until they would have fired. A
// separate FIFO lane for RPC timeouts (one delay, so already in firing
// order) saved about 3 %, too little for a second kernel API.
package eventsim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// ErrPastTime reports an attempt to schedule an event before the current
// virtual time.
var ErrPastTime = errors.New("eventsim: cannot schedule event in the past")

// DefaultCancelBatch is the event-batch granularity at which Run and
// RunUntil poll an installed cancel context: a canceled run stops within
// at most this many further events. Small enough that even a dense
// simulation halts in microseconds, large enough that the poll is
// invisible next to real event work.
const DefaultCancelBatch = 256

// Simulator is a discrete-event simulator with a virtual clock. The zero
// value is not usable; construct with New.
type Simulator struct {
	now       time.Duration
	seq       uint64 // tie-breaker so equal-time events run in schedule order
	queue     []queued
	rng       *rand.Rand
	processed uint64
	stopped   bool

	cancelCtx context.Context
	cancelErr error
}

// Runner is an event body. Scheduling a Runner instead of a func lets a
// caller that already holds a record of the pending work (a message in
// flight, an outstanding request) make that record the event, with no
// closure allocated to carry it.
type Runner interface {
	Run()
}

// funcRunner adapts a plain func to Runner. A func value is pointer-shaped,
// so the conversion to the interface does not allocate.
type funcRunner func()

func (f funcRunner) Run() { f() }

// Timer is a scheduled event and the handle to it. Cancel takes a pending
// event out of the queue at once; cancelling a fired, cancelled or never
// armed timer is a no-op. The zero value is an idle timer ready for Arm.
type Timer struct {
	run  Runner
	sim  *Simulator
	slot int32 // queue position + 1 while pending, 0 otherwise
}

// Cancel prevents the timer's event from firing and removes it from the
// queue. It reports whether the event was still pending.
func (t *Timer) Cancel() bool {
	if !t.Pending() {
		return false
	}
	t.sim.removeAt(int(t.slot) - 1)
	t.run = nil
	return true
}

// Pending reports whether the timer's event has neither fired nor been
// cancelled.
func (t *Timer) Pending() bool {
	return t != nil && t.slot != 0
}

// queued is one entry of the event queue. The firing key (at, seq) lives in
// the entry so that heap comparisons never leave the queue's own memory.
type queued struct {
	at  time.Duration
	seq uint64
	t   *Timer
}

func (a *queued) before(b *queued) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// The queue is a 4-ary min-heap on (at, seq): the children of position i
// are 4i+1..4i+4. Half the depth of a binary heap and four sibling keys
// side by side in memory. Every move records the entry's new position in
// its timer, which is what lets Cancel remove an event from the middle.

// siftUp places e at position i or above, moving larger parents down.
func (s *Simulator) siftUp(i int, e queued) {
	q := s.queue
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].t.slot = int32(i + 1)
		i = parent
	}
	q[i] = e
	e.t.slot = int32(i + 1)
}

// siftDown places e at position i or below, moving smaller children up.
func (s *Simulator) siftDown(i int, e queued) {
	q := s.queue
	for {
		child := 4*i + 1
		if child >= len(q) {
			break
		}
		least := child
		for c := child + 1; c < child+4 && c < len(q); c++ {
			if q[c].before(&q[least]) {
				least = c
			}
		}
		if !q[least].before(&e) {
			break
		}
		q[i] = q[least]
		q[i].t.slot = int32(i + 1)
		i = least
	}
	q[i] = e
	e.t.slot = int32(i + 1)
}

// removeAt takes the entry at position i out of the queue, refilling the
// hole with the last entry.
func (s *Simulator) removeAt(i int) {
	q := s.queue
	q[i].t.slot = 0
	n := len(q) - 1
	last := q[n]
	q[n] = queued{}
	s.queue = q[:n]
	if i == n {
		return
	}
	if i > 0 && last.before(&q[(i-1)/4]) {
		s.siftUp(i, last)
	} else {
		s.siftDown(i, last)
	}
}

// New returns a simulator whose random number generator is seeded with seed.
// Two simulators built from the same seed and fed the same schedule of
// events produce identical executions.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time, measured from simulation start.
func (s *Simulator) Now() time.Duration { return s.now }

// Rand returns the simulator's seeded random number generator. All
// randomness in a simulation must come from this generator to keep runs
// reproducible.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// SetCancel installs ctx as the kernel's cancellation signal: Run and
// RunUntil poll ctx between batches of DefaultCancelBatch fired events
// and return early once ctx is done, recording the cause for Err. The
// poll never touches the clock, the queue or the RNG, so a run that
// completes — whether ctx fires late or never — is byte-identical to one
// executed without a cancel context.
func (s *Simulator) SetCancel(ctx context.Context) { s.cancelCtx = ctx }

// Err returns the cancellation cause that interrupted the most recent Run
// or RunUntil, or nil if it ran to completion.
func (s *Simulator) Err() error { return s.cancelErr }

// interrupted polls the installed cancel context at batch boundaries.
// countdown counts events remaining in the current batch; a zero value
// forces a poll (so the first event of a run never fires canceled).
func (s *Simulator) interrupted(countdown *uint64) bool {
	if *countdown > 0 {
		*countdown--
		return false
	}
	if s.cancelCtx != nil {
		if err := s.cancelCtx.Err(); err != nil {
			s.cancelErr = err
			return true
		}
	}
	*countdown = DefaultCancelBatch - 1
	return false
}

// Processed reports how many events have fired so far.
func (s *Simulator) Processed() uint64 { return s.processed }

// Pending reports how many events are queued to fire. Cancelled events
// leave the queue on Cancel and are not counted.
func (s *Simulator) Pending() int { return len(s.queue) }

// MustSchedule queues fn to run after delay of virtual time and returns a
// cancellable handle. A zero delay runs fn at the current time, after
// already-queued events for that time. The handle is the event itself —
// one allocation — and because it is the caller's to keep, the kernel
// never reuses it. A negative delay or a nil fn panics: every caller
// controls its delay.
func (s *Simulator) MustSchedule(delay time.Duration, fn func()) *Timer {
	if fn == nil {
		panic("eventsim: nil event function")
	}
	t := new(Timer)
	s.Arm(t, delay, funcRunner(fn))
	return t
}

// Arm queues r to run after delay of virtual time on a timer the caller
// owns, typically one embedded in the record r itself, so that an event
// costs no allocation. The owner may re-arm or recycle the timer once it
// has fired or been cancelled; arming a pending timer panics, as do a
// negative delay and a nil r.
func (s *Simulator) Arm(t *Timer, delay time.Duration, r Runner) {
	switch {
	case delay < 0:
		panic(ErrPastTime)
	case r == nil:
		panic("eventsim: nil event runner")
	case t.Pending():
		panic("eventsim: timer armed while pending")
	}
	t.run, t.sim = r, s
	e := queued{at: s.now + delay, seq: s.seq, t: t}
	s.seq++
	s.queue = append(s.queue, e)
	s.siftUp(len(s.queue)-1, e)
}

// Every runs tick at from, from+period, … at each instant before until,
// and ends the series after a tick that returns false. The first tick is
// queued now, each next one only after the tick before it has run, so a
// tick's own events precede its successor at a shared instant. An
// inverted window, a start in the past and a period <= 0 are errors;
// from == until queues one event that runs no tick.
func (s *Simulator) Every(from, until, period time.Duration, tick func() bool) error {
	switch {
	case until < from:
		return fmt.Errorf("eventsim: window ends %v before it starts %v", until, from)
	case period <= 0:
		return fmt.Errorf("eventsim: period %v is not positive", period)
	case from < s.now:
		return ErrPastTime
	}
	var fire func()
	fire = func() {
		now := s.now
		if now >= until || !tick() {
			return
		}
		if now+period < until {
			s.MustSchedule(period, fire)
		}
	}
	s.MustSchedule(from-s.now, fire)
	return nil
}

// Step fires the next pending event, advancing the clock to its time. It
// reports whether an event fired.
func (s *Simulator) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	at, t := s.queue[0].at, s.queue[0].t
	s.removeAt(0)
	r := t.run
	t.run = nil
	s.now = at
	r.Run()
	s.processed++
	return true
}

// Run fires events until the queue is empty, Stop is called, or an
// installed cancel context (SetCancel) fires at a batch boundary.
func (s *Simulator) Run() {
	s.stopped = false
	s.cancelErr = nil
	var countdown uint64
	for !s.stopped {
		if s.interrupted(&countdown) {
			return
		}
		if !s.Step() {
			return
		}
	}
}

// RunUntil fires events with time <= deadline, then advances the clock to
// the deadline. Events scheduled beyond the deadline stay queued. When an
// installed cancel context (SetCancel) fires, the run stops within one
// event batch without advancing the clock to the deadline — the partial
// state is the caller's to discard.
func (s *Simulator) RunUntil(deadline time.Duration) {
	s.stopped = false
	s.cancelErr = nil
	var countdown uint64
	for !s.stopped {
		if s.interrupted(&countdown) {
			return
		}
		next, ok := s.peek()
		if !ok || next > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Stop makes a Run or RunUntil in progress return after the current event.
// It is intended to be called from inside an event callback.
func (s *Simulator) Stop() { s.stopped = true }

func (s *Simulator) peek() (time.Duration, bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.queue[0].at, true
}
