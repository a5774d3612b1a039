// Package serve is the long-running resilience-query service behind
// cmd/kadserve: a shared engine arena that keeps finished simulations'
// analysis state warm across queries, adaptive-precision replication on
// top of internal/sweep, and an HTTP API that streams per-replication
// progress while a query decides.
package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"

	"kadre/internal/connectivity"
	"kadre/internal/scenario"
	"kadre/internal/sweep"
)

// isCancellation reports whether err stems from a context ending —
// client disconnect (Canceled) or deadline (DeadlineExceeded) — as
// opposed to a simulation genuinely failing.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Arena is a keyed pool of warm engine bindings shared by every query
// the server handles. A simulation run is a pure function of its
// effective configuration and seed, so its Result — and the engine still
// bound to its final topology — can be reused verbatim whenever any
// query replicates the same configuration. Entries are evicted in LRU
// order once their estimated footprint exceeds the memory budget;
// evicted entries remain valid for queries already holding them (the
// collector reclaims the state once the last holder drops it).
//
// Get is safe for concurrent use and singleflights cold builds: when two
// queries race on the same key, one simulation runs and both receive the
// entry. Entry engine access is serialized per entry (see Entry.mu) —
// the connectivity engine itself is not concurrency-safe.
type Arena struct {
	mu        sync.Mutex
	budget    int64
	used      int64
	entries   map[string]*list.Element // key -> element whose Value is *Entry
	lru       *list.List               // front = most recently used
	inflight  map[string]*inflightRun
	runner    func(context.Context, scenario.Config) (*scenario.Result, *scenario.Bound, error)
	hits      int64
	misses    int64
	builds    int64
	evictions int64
}

// ArenaOptions configures NewArena.
type ArenaOptions struct {
	// BudgetBytes bounds the summed estimated footprint of resident
	// entries; <= 0 means 256 MiB. A single entry larger than the budget
	// is still admitted (and evicts everything else).
	BudgetBytes int64
	// Runner executes one simulation and hands back its warm binding,
	// abandoning the run once ctx is done. Nil means scenario.RunBoundCtx;
	// tests inject fabricated runs.
	Runner func(context.Context, scenario.Config) (*scenario.Result, *scenario.Bound, error)
}

// DefaultArenaBudget is the resident-footprint bound when none is given.
const DefaultArenaBudget = 256 << 20

// NewArena creates an empty arena.
func NewArena(opts ArenaOptions) *Arena {
	budget := opts.BudgetBytes
	if budget <= 0 {
		budget = DefaultArenaBudget
	}
	runner := opts.Runner
	if runner == nil {
		runner = scenario.RunBoundCtx
	}
	return &Arena{
		budget:   budget,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
		inflight: make(map[string]*inflightRun),
		runner:   runner,
	}
}

type inflightRun struct {
	done chan struct{}
	e    *Entry
	err  error
}

// Entry is one warm simulation: the run's Result plus the engine still
// bound to the final snapshot's topology. A parked engine keeps answers,
// not scratch: the arena releases it (connectivity.Engine.Release) before
// parking it and after every resample, so a resident entry holds its
// binding and memoized rows but no in-neighbour rows or solver scratch.
type Entry struct {
	key  string
	cfg  scenario.Config // effective (defaulted) configuration, seed included
	res  *scenario.Result
	bind *scenario.Bound
	size int64

	// mu serializes engine access: AnalyzeFinal re-sweeps on the same
	// non-concurrency-safe engine.
	mu sync.Mutex
}

// Result returns the entry's (shared, read-only) simulation result.
func (e *Entry) Result() *scenario.Result { return e.res }

// Config returns the effective configuration the entry ran.
func (e *Entry) Config() scenario.Config { return e.cfg }

// AnalyzeFinal re-analyzes the entry's final captured topology on the
// warm engine with a caller-chosen sampling fraction and Avg-sweep seed
// — the query-time "resample" that never re-pays the simulation. frac 0
// means the run's own SampleFraction; seed 0 means the final point's
// own AvgSeed (reproducing its Min, and the Avg a batch run of the same
// config measures, exactly). The engine is never rebound after the run,
// so its AnalyzeSnapshot memo keeps every source row any query has paid
// for. The build memoized the final snapshot's Min but swept no Avg row,
// so (0, 0) sweeps the run's own uniform rows, paid once per entry; a
// resample sweeps only the sources no earlier query of this entry drew.
// Either sweep rebuilds the solvers, which the engine releases again
// before the entry lock drops.
func (e *Entry) AnalyzeFinal(frac float64, seed int64) (connectivity.SnapshotResult, error) {
	if !e.bind.Ready() {
		return connectivity.SnapshotResult{}, fmt.Errorf("serve: run %q left no analyzable topology", e.cfg.Name)
	}
	if frac == 0 {
		frac = e.cfg.SampleFraction
	}
	if seed == 0 {
		seed = e.bind.FinalAvgSeed
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	sr := e.bind.Engine.AnalyzeSnapshot(connectivity.SnapshotQuery{
		SampleFraction: frac,
		AvgSeed:        seed,
	})
	e.bind.Engine.Release()
	return sr, nil
}

// FinalN returns the live size of the final analyzed snapshot (0 when
// the run ended with at most one live node).
func (e *Entry) FinalN() int {
	if !e.bind.Ready() {
		return 0
	}
	return e.bind.Final.N()
}

// Get returns the warm entry for cfg, building it with one simulation
// run on a miss; ctx cancels the caller's wait and its own build (the
// event kernel polls it at batch boundaries). The second return reports
// whether the entry was served warm — from residency or by joining
// another caller's in-flight build — i.e. without paying a simulation of
// its own.
//
// Cancellation never poisons the arena: an entry is created only when a
// build completes, so an abandoned run leaves no trace, and a joiner
// whose builder was canceled out from under it (while the joiner's own
// ctx is still live) retries and becomes the builder itself rather than
// inheriting the dead caller's error.
func (a *Arena) Get(ctx context.Context, cfg scenario.Config) (*Entry, bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// The run key leaves out Name, Governance and MinOnly: renaming a
	// query or changing the server's maintenance policy must not
	// duplicate warm state, and every entry is built MinOnly.
	key := sweep.Key(cfg)
	for {
		a.mu.Lock()
		if el, ok := a.entries[key]; ok {
			a.lru.MoveToFront(el)
			a.hits++
			a.mu.Unlock()
			return el.Value.(*Entry), true, nil
		}
		if call, ok := a.inflight[key]; ok {
			a.mu.Unlock()
			select {
			case <-call.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if call.err != nil {
				if isCancellation(call.err) && ctx.Err() == nil {
					// The builder's query went away, not ours: try again
					// (and likely become the builder this round).
					continue
				}
				return nil, false, call.err
			}
			a.mu.Lock()
			a.hits++
			a.mu.Unlock()
			return call.e, true, nil
		}
		call := &inflightRun{done: make(chan struct{})}
		a.inflight[key] = call
		a.misses++
		a.mu.Unlock()

		// No metric reads an intermediate Avg, and the final one is
		// AnalyzeFinal(0, 0)'s: skip the Avg sweep at every snapshot.
		cfg.MinOnly = true
		res, bind, err := a.build(ctx, cfg)
		var entry *Entry
		if err == nil {
			if bind != nil && bind.Engine != nil {
				// Park answers, not solvers; nobody else sees the engine yet.
				bind.Engine.Release()
			}
			entry = &Entry{
				key: key, cfg: cfg.WithDefaults(), res: res, bind: bind,
				size: estimateSize(res, bind),
			}
		}

		a.mu.Lock()
		delete(a.inflight, key)
		if err == nil {
			a.builds++
			el := a.lru.PushFront(entry)
			a.entries[key] = el
			a.used += entry.size
			a.evictOver(el)
		}
		a.mu.Unlock()

		call.e, call.err = entry, err
		close(call.done)
		if err != nil {
			return nil, false, err
		}
		return entry, false, nil
	}
}

// build runs one simulation. A panic in the run becomes its error, so
// the in-flight call closes, no entry is parked and the server keeps
// serving: the run executes on a sweep pool goroutine, where an
// unrecovered panic would end the process.
func (a *Arena) build(ctx context.Context, cfg scenario.Config) (res *scenario.Result, bind *scenario.Bound, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, bind, err = nil, nil, fmt.Errorf("serve: run %q panicked: %v", cfg.Name, p)
		}
	}()
	return a.runner(ctx, cfg)
}

// evictOver drops least-recently-used entries until the footprint fits
// the budget, never evicting keep (the entry just inserted). Caller
// holds a.mu.
func (a *Arena) evictOver(keep *list.Element) {
	for a.used > a.budget && a.lru.Len() > 1 {
		el := a.lru.Back()
		if el == keep {
			el = el.Prev()
		}
		if el == nil {
			return
		}
		e := el.Value.(*Entry)
		a.lru.Remove(el)
		delete(a.entries, e.key)
		a.used -= e.size
		a.evictions++
	}
}

// ArenaStats is a point-in-time occupancy report (GET /v1/arena).
type ArenaStats struct {
	Entries     int   `json:"entries"`
	BudgetBytes int64 `json:"budget_bytes"`
	UsedBytes   int64 `json:"used_bytes"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Builds      int64 `json:"builds"`
	Evictions   int64 `json:"evictions"`
	// Sched is the admission-queue breakdown; the server fills it in (the
	// arena itself has no scheduler).
	Sched *SchedStats  `json:"sched,omitempty"`
	Runs  []EntryStats `json:"runs,omitempty"`
}

// EntryStats describes one resident entry, most recently used first.
type EntryStats struct {
	Name      string `json:"name"`
	Seed      int64  `json:"seed"`
	Size      int    `json:"size"`
	FinalN    int    `json:"final_n"`
	SizeBytes int64  `json:"size_bytes"`
}

// Stats snapshots the arena's occupancy and counters. It reads only
// fields fixed when an entry was built, so it never waits on an entry's
// lock behind a running resample.
func (a *Arena) Stats() ArenaStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := ArenaStats{
		Entries: a.lru.Len(), BudgetBytes: a.budget, UsedBytes: a.used,
		Hits: a.hits, Misses: a.misses, Builds: a.builds, Evictions: a.evictions,
	}
	for el := a.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*Entry)
		st.Runs = append(st.Runs, EntryStats{
			Name: e.cfg.Name, Seed: e.cfg.Seed, Size: e.cfg.Size,
			FinalN: e.FinalN(), SizeBytes: e.size,
		})
	}
	return st
}

// Builds returns how many cold simulation builds the arena has paid —
// the counter the warm-repeat tests pin to zero growth.
func (a *Arena) Builds() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.builds
}

// estimateSize approximates an entry's resident footprint: a fixed
// engine and result overhead, the captured final graph (one adjacency
// bitset row per slot, n²/8 bytes, plus its degree table) with the
// engine's AnalyzeSnapshot memo at its bound (the row table holds one
// slot per live vertex from the build's first analysis on, filled or
// not — a MinOnly build fills none, and AnalyzeFinal fills them), and
// the measurement series. A parked engine holds no solver scratch, so no
// solver term appears. Estimates only steer LRU eviction, so rough
// constants are enough; TestEstimateSizeBoundsRetainedHeap holds them to
// the heap the serve-mixed shapes actually retain.
func estimateSize(res *scenario.Result, b *scenario.Bound) int64 {
	// Fixed engine and result overhead: the six serve-mixed shapes retain
	// ~27 KB per entry with ~5.4 KB in the terms below; rounded up so that
	// a host with many more engine workers still estimates high.
	size := int64(28 << 10)
	if b.Ready() {
		size += int64(b.Final.Graph.Bytes())
		size += int64(b.Final.N()) * 72
	}
	if res != nil {
		size += int64(len(res.Points)) * 96
		size += int64(len(res.Victims)) * 48
	}
	return size
}
