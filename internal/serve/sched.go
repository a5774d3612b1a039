package serve

import (
	"container/list"
	"context"
	"sync"
)

// Sched is the server-wide admission queue: a FIFO semaphore
// bounding the total number of concurrently executing replications
// across every query the server handles. Before kadserve had one, each
// query span up its own wave pool, so N clients meant N×jobs concurrent
// simulations; with the queue, a query's replications wait their turn
// behind everyone else's — in strict arrival order, so no query starves
// — and the simulation load on the host never exceeds the configured
// limit no matter how many clients connect.
//
// The queue bounds *execution*, never *outcome*: a replication delayed
// by admission produces exactly the bytes it would have produced
// running alone, and the adaptive fold consumes results in rep order
// regardless of when slots freed, so completed-rep records stay
// byte-identical under any concurrency limit.
type Sched struct {
	mu      sync.Mutex
	limit   int64      // <= 0: unlimited
	inUse   int64      // slots currently held
	waiters *list.List // of chan struct{}, FIFO; closed when the slot is granted

	queued   int64 // queries admitted but not yet holding their first slot
	running  int64 // queries past their first slot and not yet done
	canceled int64 // cumulative queries that ended canceled or timed out
}

// NewSched builds an admission queue bounding concurrent replications to
// limit; limit <= 0 means unlimited (the queue still tracks the query
// breakdown, it just never blocks).
func NewSched(limit int) *Sched {
	return &Sched{limit: int64(limit), waiters: list.New()}
}

// acquire blocks until one slot is granted in FIFO order or ctx is done.
// On cancellation the waiter leaves the queue without disturbing the
// grants of the queries behind it.
func (s *Sched) acquire(ctx context.Context) error {
	s.mu.Lock()
	if s.limit <= 0 || (s.waiters.Len() == 0 && s.inUse < s.limit) {
		if s.limit > 0 {
			s.inUse++
		}
		s.mu.Unlock()
		// Even an immediate grant respects cancellation: a dead caller
		// must not start a simulation.
		if err := ctx.Err(); err != nil {
			s.release()
			return err
		}
		return nil
	}
	ready := make(chan struct{})
	elem := s.waiters.PushBack(ready)
	s.mu.Unlock()

	select {
	case <-ready:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		select {
		case <-ready:
			// Granted between ctx firing and the lock: hand the slot
			// straight back so the next waiter gets it.
			s.inUse--
			s.grant()
		default:
			s.waiters.Remove(elem)
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}

// release returns one slot and wakes eligible waiters in FIFO order.
func (s *Sched) release() {
	if s.limit <= 0 {
		return
	}
	s.mu.Lock()
	s.inUse--
	s.grant()
	s.mu.Unlock()
}

// grant satisfies queued waiters from the front while capacity lasts.
// Caller holds s.mu. Admission order is the fairness contract.
func (s *Sched) grant() {
	for {
		front := s.waiters.Front()
		if front == nil || s.inUse >= s.limit {
			return
		}
		s.inUse++
		close(s.waiters.Remove(front).(chan struct{}))
	}
}

// Begin registers one query with the scheduler in the queued state and
// returns its ticket. The caller must call Ticket.Done exactly once.
func (s *Sched) Begin() *Ticket {
	s.mu.Lock()
	s.queued++
	s.mu.Unlock()
	return &Ticket{s: s}
}

// Ticket is one query's handle on the admission queue: per-replication
// slot acquisition plus the queued -> running -> done lifecycle the
// /v1/arena breakdown reports. Acquire and Release are safe to call
// concurrently from a query's replication workers; Done is not, and must
// happen after every worker finished.
type Ticket struct {
	s     *Sched
	once  sync.Once
	began bool // left the queued state (guarded by s.mu via once body)
	done  bool
}

// Acquire blocks until one replication slot is granted (FIFO across all
// queries) or ctx is done. The first grant moves the query from queued
// to running.
func (t *Ticket) Acquire(ctx context.Context) error {
	if err := t.s.acquire(ctx); err != nil {
		return err
	}
	t.once.Do(func() {
		t.s.mu.Lock()
		t.s.queued--
		t.s.running++
		t.began = true
		t.s.mu.Unlock()
	})
	return nil
}

// Release returns one replication slot.
func (t *Ticket) Release() { t.s.release() }

// Done unregisters the query; canceled marks it in the cumulative
// cancellation counter (client disconnect or deadline exceeded).
func (t *Ticket) Done(canceled bool) {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	if t.done {
		return
	}
	t.done = true
	if t.began {
		t.s.running--
	} else {
		t.s.queued--
	}
	if canceled {
		t.s.canceled++
	}
}

// SchedStats is the admission-queue breakdown on GET /v1/arena.
type SchedStats struct {
	// MaxConcurrentSims is the slot limit; 0 reports an unlimited queue.
	MaxConcurrentSims int64 `json:"max_concurrent_sims"`
	// InUse counts replication slots currently held.
	InUse int64 `json:"in_use"`
	// Queued counts queries admitted but still waiting for a first slot.
	Queued int64 `json:"queued"`
	// Running counts queries holding or past their first slot, not done.
	Running int64 `json:"running"`
	// Canceled counts queries (cumulatively) that ended canceled —
	// client disconnect or deadline exceeded.
	Canceled int64 `json:"canceled"`
}

// Stats snapshots the queue.
func (s *Sched) Stats() SchedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	limit := s.limit
	if limit < 0 {
		limit = 0
	}
	return SchedStats{
		MaxConcurrentSims: limit,
		InUse:             s.inUse,
		Queued:            s.queued,
		Running:           s.running,
		Canceled:          s.canceled,
	}
}
