// Package sweep is the parallel experiment orchestrator: it fans scenario
// runs out across a worker pool, replicates every configuration R times
// with derived seeds (the paper's §5.4 repeated-run methodology), and
// collapses the replications into cross-run mean / standard deviation /
// 95% confidence-interval curves per snapshot instant.
//
// Determinism is a hard contract: each scenario run is a pure function of
// its config (the event-sim kernel is single-goroutine and seeded), jobs
// are handed to workers in a fixed order (longest expected run first) with
// results written back by index, and seed derivation depends only on
// (base seed, rep). The same sweep therefore produces identical Results
// under any worker count — the property the determinism tests pin down
// under the race detector.
package sweep

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"kadre/internal/connectivity"
	"kadre/internal/par"
	"kadre/internal/scenario"
	"kadre/internal/stats"
)

// Options configures a sweep.
type Options struct {
	// Reps is the number of seed replications per config; <= 0 means 1.
	// Rep 0 always runs the config's own seed, so Reps=1 reproduces a
	// plain scenario.Run byte for byte.
	Reps int
	// Jobs bounds the number of concurrently executing runs; <= 0 means
	// GOMAXPROCS.
	Jobs int
	// Progress, when set, receives one event per completed run. Events are
	// delivered serially (never concurrently), in completion order, which
	// depends on scheduling; the Done counter is monotonic. With one worker
	// they come in dispatch order (see RunGroups).
	Progress func(Event)
	// Checkpoint, when set, persists every completed run to disk and
	// replays already-completed runs instead of re-executing them, so an
	// interrupted sweep resumes where it stopped.
	Checkpoint *Checkpointer
}

// Event reports one completed (or failed) run to the Progress callback.
type Event struct {
	Experiment string        // group name in a multi-experiment sweep ("" otherwise)
	Name       string        // config name
	Rep        int           // replication index, 0-based
	Seed       int64         // derived seed the run used
	Done       int           // completed runs so far, including this one
	Total      int           // distinct runs in the sweep (all groups)
	Elapsed    time.Duration // wall-clock cost of this run
	Cached     bool          // run was replayed from a checkpoint
	Err        error         // non-nil if the run failed
}

// RunSet is the outcome of all replications of one configuration.
type RunSet struct {
	// Config is the base configuration (rep 0; its seed is the base seed).
	Config scenario.Config
	// Reps holds the per-replication results in rep order.
	Reps []*scenario.Result
	// Min, Avg and Size are the cross-replication aggregates of the
	// minimum-connectivity, average-connectivity and live-size curves.
	Min, Avg, Size *stats.AggregateSeries
	// SCC and Removed aggregate the largest-SCC-fraction and cumulative
	// adversarial-removal curves (Removed is all zeros without an attack).
	SCC, Removed *stats.AggregateSeries
}

// ChurnWindowMeans returns each replication's mean minimum connectivity
// during the churn phase — the per-run quantity behind Table 2 — so
// callers can report its cross-run mean and confidence interval.
func (rs *RunSet) ChurnWindowMeans() []float64 {
	out := make([]float64, len(rs.Reps))
	for i, r := range rs.Reps {
		out[i] = r.ChurnWindowSummary().Mean
	}
	return out
}

// DeriveSeed maps a base seed and replication index to the seed of that
// replication. Rep 0 is the base seed itself (so single-rep sweeps match
// historical runs exactly); higher reps pass the pair through a
// splitmix64-style mixer so that consecutive bases and consecutive reps
// land on unrelated streams rather than the overlapping ones plain
// seed+rep arithmetic would give (presets already use seed, seed+1, ...).
func DeriveSeed(base int64, rep int) int64 {
	if base == 0 {
		base = 1 // scenario's WithDefaults treats 0 as 1
	}
	if rep == 0 {
		return base
	}
	x := uint64(base) + uint64(rep)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	seed := int64(x)
	if seed == 0 {
		seed = 1
	}
	return seed
}

// Group names one experiment's configurations inside a multi-experiment
// sweep; the name is echoed as Event.Experiment on its runs' progress
// events.
type Group struct {
	Name    string
	Configs []scenario.Config
}

// Run executes every configuration Reps times across the worker pool and
// returns one RunSet per configuration, in input order. Any run failure
// aborts the sweep with the error of the failing run that comes first in
// dispatch order (see RunGroups); in-flight runs complete, and runs
// dispatched after the failure may be skipped.
func Run(cfgs []scenario.Config, opts Options) ([]*RunSet, error) {
	sets, err := RunGroups([]Group{{Configs: cfgs}}, opts)
	if err != nil {
		return nil, err
	}
	return sets[0], nil
}

// runID is what makes two jobs' results byte-identical: the run's Key
// plus the two Config fields outside the fingerprint that still reach a
// Result (the maintenance counters and the Avg half of every point).
type runID struct {
	key        string
	governance connectivity.GovernancePolicy
	minOnly    bool
}

// RunGroups executes several experiments' sweeps through one shared
// worker pool, returning per-group RunSets in input order. Unlike
// looping Run over the groups, the pool never drains between
// experiments: jobs from the next experiment backfill workers as the
// previous experiment's tail finishes, keeping every core busy across
// experiment boundaries. Determinism is unchanged — every run is a pure
// function of its config and seed, and results are reassembled by
// index — so the output is identical to the serial per-experiment form.
//
// A run declared more than once — by two groups (the catalogue's table2
// and figure6 both hold Sim E) or twice in one — executes once, and its
// result fills every slot that declared it. Its progress event names the
// group that declared it first, and Event.Total counts distinct runs.
//
// Runs are dispatched longest expected first (Graham's LPT rule), so that
// the pool does not end on one long run started last while the other
// workers idle. The expected cost of a run is Size × K × (Setup +
// Stabilize + ChurnPhase) (scenario.Config.ExpectedCost); runs of equal
// cost keep the (group, config, rep) order of their first declaration.
//
// A failing run ends the group that declared it first: that group's runs
// dispatched after it may be skipped, while every other group's runs
// still run, so a costly run that fails early does not take the cheaper
// experiments down with it. Every group that declared the failed run is
// incomplete. RunGroups then returns the error of the failing run that
// comes first in dispatch order alongside a partial result: groups whose
// runs all completed carry their RunSets, the rest are nil. Callers can
// therefore persist the finished experiments of a long pooled sweep
// instead of discarding hours of completed work with the error.
func RunGroups(groups []Group, opts Options) ([][]*RunSet, error) {
	reps := opts.Reps
	if reps <= 0 {
		reps = 1
	}

	type job struct {
		cfg   scenario.Config
		group string
		gi    int // index of the declaring group, the job's failure scope
		rep   int
		at    []int // every (group, config, rep) slot the result fills
		cost  float64
	}
	var (
		jobs  []job
		slots []scenario.Config // each slot's own config, by slot index
		seen  = make(map[runID]int)
	)
	for gi, g := range groups {
		for _, cfg := range g.Configs {
			cost := cfg.ExpectedCost()
			for r := 0; r < reps; r++ {
				jc := cfg
				jc.Seed = DeriveSeed(cfg.Seed, r)
				eff := jc.WithDefaults()
				id := runID{Key(eff), eff.Governance, eff.MinOnly}
				if ji, ok := seen[id]; ok {
					jobs[ji].at = append(jobs[ji].at, len(slots))
				} else {
					seen[id] = len(jobs)
					jobs = append(jobs, job{cfg: jc, group: g.Name, gi: gi, rep: r, at: []int{len(slots)}, cost: cost})
				}
				slots = append(slots, jc)
			}
		}
	}
	slices.SortStableFunc(jobs, func(a, b job) int { return cmp.Compare(b.cost, a.cost) })

	progress := &progressGate{fn: opts.Progress, total: len(jobs)}
	scope := func(i int) int { return jobs[i].gi }
	dispatched, mapErr := par.MapScoped(opts.Jobs, jobs, len(groups), scope, func(_ int, j job) (*scenario.Result, error) {
		if opts.Checkpoint != nil {
			if res, ok := opts.Checkpoint.Load(j.cfg); ok {
				progress.emit(Event{
					Experiment: j.group, Name: j.cfg.Name, Rep: j.rep, Seed: j.cfg.Seed, Cached: true,
				})
				return res, nil
			}
		}
		res, rerr := scenario.Run(j.cfg)
		if rerr == nil && opts.Checkpoint != nil {
			rerr = opts.Checkpoint.Store(j.cfg, res)
		}
		var elapsed time.Duration
		if res != nil {
			elapsed = res.Elapsed
		}
		progress.emit(Event{
			Experiment: j.group, Name: j.cfg.Name, Rep: j.rep, Seed: j.cfg.Seed,
			Elapsed: elapsed, Err: rerr,
		})
		if rerr != nil {
			return nil, fmt.Errorf("scenario %q rep %d (seed %d): %w", j.cfg.Name, j.rep, j.cfg.Seed, rerr)
		}
		return res, nil
	})
	results := make([]*scenario.Result, len(slots))
	for i, j := range jobs {
		for n, at := range j.at {
			res := dispatched[i]
			if res != nil && n > 0 {
				// A later declarer gets a copy carrying its own config (a
				// shared run may go by another name there).
				shared := *res
				shared.Config = slots[at].WithDefaults()
				res = &shared
			}
			results[at] = res
		}
	}

	out := make([][]*RunSet, len(groups))
	next := 0
	for gi, g := range groups {
		sets := make([]*RunSet, len(g.Configs))
		complete := true
		for ci := range g.Configs {
			repResults := results[next : next+reps]
			next += reps
			for _, r := range repResults {
				if r == nil {
					// Failed, or skipped after its group's first failure.
					complete = false
				}
			}
			if !complete {
				continue
			}
			rs := &RunSet{Config: g.Configs[ci], Reps: repResults}
			rs.Config.Seed = DeriveSeed(g.Configs[ci].Seed, 0)
			if err := rs.Aggregate(); err != nil {
				return nil, fmt.Errorf("sweep: config %q: %w", rs.Config.Name, err)
			}
			sets[ci] = rs
		}
		if complete {
			out[gi] = sets
		}
	}
	return out, mapErr
}

// Aggregate (re)builds the cross-replication aggregate series from Reps.
// Run calls it automatically; it is exported for callers assembling
// RunSets from externally produced results (e.g. replayed checkpoints or
// fabricated fixtures).
func (rs *RunSet) Aggregate() error {
	mins := make([]*stats.Series, len(rs.Reps))
	avgs := make([]*stats.Series, len(rs.Reps))
	sizes := make([]*stats.Series, len(rs.Reps))
	sccs := make([]*stats.Series, len(rs.Reps))
	removed := make([]*stats.Series, len(rs.Reps))
	for i, r := range rs.Reps {
		mins[i] = r.MinSeries()
		avgs[i] = r.AvgSeries()
		sizes[i] = r.SizeSeries()
		sccs[i] = r.SCCSeries()
		removed[i] = r.RemovedSeries()
	}
	var err error
	if rs.Min, err = stats.AggregateAligned(rs.Config.Name+"/min", mins); err != nil {
		return err
	}
	if rs.Avg, err = stats.AggregateAligned(rs.Config.Name+"/avg", avgs); err != nil {
		return err
	}
	if rs.SCC, err = stats.AggregateAligned(rs.Config.Name+"/scc", sccs); err != nil {
		return err
	}
	if rs.Removed, err = stats.AggregateAligned(rs.Config.Name+"/removed", removed); err != nil {
		return err
	}
	rs.Size, err = stats.AggregateAligned(rs.Config.Name+"/size", sizes)
	return err
}

// progressGate serializes Progress callbacks and owns the Done counter so
// callers receive events one at a time without locking on their side.
type progressGate struct {
	mu    sync.Mutex
	fn    func(Event)
	total int
	done  int
}

func (g *progressGate) emit(ev Event) {
	if g.fn == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.done++
	ev.Done = g.done
	ev.Total = g.total
	g.fn(ev)
}
