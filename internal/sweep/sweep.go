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
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"kadre/internal/connectivity"
	"kadre/internal/scenario"
	"kadre/internal/stats"
	"kadre/internal/workload"
)

// Options configures a sweep.
type Options struct {
	// Reps is the number of seed replications per config; <= 0 means 1.
	// Rep 0 always runs the config's own seed, so Reps=1 reproduces a
	// plain scenario.Run byte for byte. With a Rule, Reps is each
	// config's rep budget instead (see RepBounds).
	Reps int
	// Jobs bounds the number of concurrently executing runs; <= 0 means
	// GOMAXPROCS.
	Jobs int
	// Rule, when set, makes the sweep adaptive (see RunGroups): it stops
	// a config on its reps' Extract values, using at least MinReps.
	Rule    StopRule
	Extract func(*scenario.Result) float64
	MinReps int
	// Runner executes one run (its config carries the derived seed) and
	// must return ctx's error once ctx is done; its bool reports a warm
	// result (Event.Cached). Nil means scenario.RunBoundCtx.
	Runner func(context.Context, scenario.Config) (*scenario.Result, bool, error)
	// Progress, when set, receives one event per run, with a monotonic
	// Done counter: as the run completes (with one worker, in dispatch
	// order), or in an adaptive sweep as a fold consumes it, so a config's
	// events come in rep order. Progress and Extract run under the pool's
	// lock, which keeps them serial and in that order: keep them short.
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
	Done       int           // reported runs so far, including this one
	Total      int           // distinct runs in the sweep (all groups); an adaptive sweep may stop short of it
	Elapsed    time.Duration // wall-clock cost of this run
	Cached     bool          // run was replayed from a checkpoint or answered warm by the Runner
	Err        error         // non-nil if the run failed
	// An adaptive sweep's events carry the config's fold after the rep.
	Value   float64 // the rep's metric value
	Reps    int     // reps consumed so far, including this one
	Mean    float64 // running mean over consumed reps
	CI95    float64 // running 95% CI half-width (NaN below two reps)
	Decided bool    // the rule decided at this rep
	Verdict Verdict // decided verdict, or VerdictUndecided
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
// historical runs exactly); higher reps pass the pair through
// workload.DeriveStream's splitmix64 mixer so that consecutive bases and
// consecutive reps land on unrelated streams rather than the overlapping
// ones plain seed+rep arithmetic would give (presets already use seed,
// seed+1, ...).
func DeriveSeed(base int64, rep int) int64 {
	if base == 0 {
		base = 1 // scenario's WithDefaults treats 0 as 1
	}
	if rep == 0 {
		return base
	}
	return workload.DeriveStream(base, uint64(rep))
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
	sets, err := RunGroups(context.Background(), []Group{{Configs: cfgs}}, opts)
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
// result fills every slot that declared it. Its one progress event names
// the group that declared it first (in an adaptive sweep, the config
// whose fold consumed it first), and Event.Total counts distinct runs.
//
// Runs are dispatched longest expected first (Graham's LPT rule), so that
// the pool does not end on one long run started last while the other
// workers idle. The expected cost of a run is Size × K × (Setup +
// Stabilize + ChurnPhase) (scenario.Config.ExpectedCost); runs of equal
// cost keep the (group, config, rep) order of their first declaration.
//
// With a Rule the sweep is adaptive. Each config folds its reps' Extract
// values strictly in rep order and stops at the first rep where Rule
// decides over at least MinReps values, or at its Reps budget, so its
// stop index and RunSet never depend on worker timing. A config releases
// its reps Jobs at a time, the next Jobs once its fold has consumed the
// ones before, and other configs' runs fill the workers meanwhile: fewer
// than Jobs reps run past a stop index, and their results and errors are
// discarded as if never scheduled.
//
// A failing run ends the group whose fold reaches it: that group's runs
// dispatched after it may be skipped, while every other group's runs
// still run, so a costly run that fails early does not take the cheaper
// experiments down with it. Every group that declared the failed run is
// incomplete. RunGroups then returns the error of the failing run that
// comes first in dispatch order alongside a partial result: groups whose
// runs all completed carry their RunSets, the rest are nil. Callers can
// therefore persist the finished experiments of a long pooled sweep
// instead of discarding hours of completed work with the error.
//
// ctx reaches every run (the default Runner is scenario.RunBoundCtx), no
// run starts once it is done, and a canceled run is not checkpointed. If
// that leaves a needed run undone, RunGroups returns an error wrapping
// ctx's beside the groups that completed; each config's events up to then
// are a prefix of an uncanceled sweep's.
func RunGroups(ctx context.Context, groups []Group, opts Options) ([][]*RunSet, error) {
	p, err := newPool(groups, opts)
	if err != nil {
		return nil, err
	}
	runErr := p.run(ctx)
	out := make([][]*RunSet, len(groups))
	c := 0 // index of the group's first config in p.cfgs
	for gi, g := range groups {
		sets := make([]*RunSet, len(g.Configs))
		for ci, cfg := range g.Configs {
			reps := p.results(c + ci)
			if reps == nil {
				sets = nil // failed, skipped after a failure, or canceled
				break
			}
			rs := &RunSet{Config: cfg, Reps: reps}
			rs.Config.Seed = DeriveSeed(cfg.Seed, 0)
			if err := rs.Aggregate(); err != nil {
				return nil, fmt.Errorf("sweep: config %q: %w", rs.Config.Name, err)
			}
			sets[ci] = rs
		}
		out[gi] = sets
		c += len(g.Configs)
	}
	return out, runErr
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

// pool is one sweep in flight: its distinct runs (jobs) in dispatch
// order and a fold per config. Slot config*reps+rep is one declared rep.
// mu guards the dispatch and fold state and, once running, every job's.
type pool struct {
	opts     Options
	adaptive bool
	reps     int // slots per config: Reps, or the adaptive budget
	groups   []Group
	cfgs     []scenario.Config // every group's configs, in order
	cfgGroup []int
	jobs     []job
	slotJob  []int // the job that fills each slot

	mu      sync.Mutex
	wake    *sync.Cond
	ahead   int // adaptive: reps of a config released at a time
	folds   []fold
	failAt  []int // per group: dispatch index of its first failure, len(jobs) if none
	next    int   // every job before it is taken or needed by no fold
	running int
	done    int // events reported
}

type job struct {
	cfg  scenario.Config // its first declaration's, seed derived
	at   []int           // every slot it fills, the first declaration's first
	cost float64
	// Set as it runs:
	taken, finished, reported bool
	res                       *scenario.Result
	cached                    bool
	elapsed                   time.Duration
	err                       error
}

// fold consumes one config's reps in rep order, up to stop: the budget,
// or where Rule decided.
type fold struct {
	next, stop int
	values     []float64
	mean, ci95 float64
	verdict    Verdict
}

func newPool(groups []Group, opts Options) (*pool, error) {
	p := &pool{opts: opts, groups: groups, reps: max(opts.Reps, 1)}
	if p.adaptive = opts.Rule != (StopRule{}); p.adaptive {
		err := opts.Rule.validate()
		if opts.Extract == nil {
			err = fmt.Errorf("sweep: adaptive run needs an Extract metric")
		}
		if err == nil {
			p.opts.MinReps, p.reps, err = RepBounds(opts.MinReps, opts.Reps)
		}
		if err != nil {
			return nil, err
		}
	}
	if p.opts.Runner == nil {
		p.opts.Runner = func(ctx context.Context, c scenario.Config) (*scenario.Result, bool, error) {
			r, _, err := scenario.RunBoundCtx(ctx, c)
			return r, false, err
		}
	}
	for gi, g := range groups {
		for _, cfg := range g.Configs {
			p.cfgs = append(p.cfgs, cfg)
			p.cfgGroup = append(p.cfgGroup, gi)
			p.folds = append(p.folds, fold{stop: p.reps, verdict: VerdictUndecided})
		}
	}
	// One config's reps run distinct seeds, so a lone config (every
	// RunAdaptive call) shares no run and skips the keying.
	seen := make(map[runID]int)
	for c, cfg := range p.cfgs {
		cost := cfg.ExpectedCost()
		for r := 0; r < p.reps; r++ {
			jc := cfg
			jc.Seed = DeriveSeed(cfg.Seed, r)
			if len(p.cfgs) > 1 {
				eff := jc.WithDefaults()
				id := runID{Key(eff), eff.Governance, eff.MinOnly}
				if ji, ok := seen[id]; ok {
					p.jobs[ji].at = append(p.jobs[ji].at, c*p.reps+r)
					continue
				}
				seen[id] = len(p.jobs)
			}
			p.jobs = append(p.jobs, job{cfg: jc, at: []int{c*p.reps + r}, cost: cost})
		}
	}
	slices.SortStableFunc(p.jobs, func(a, b job) int { return cmp.Compare(b.cost, a.cost) })
	p.slotJob = make([]int, len(p.cfgs)*p.reps)
	for ji, j := range p.jobs {
		for _, s := range j.at {
			p.slotJob[s] = ji
		}
	}
	p.failAt = make([]int, len(groups))
	for g := range p.failAt {
		p.failAt[g] = len(p.jobs)
	}
	p.wake = sync.NewCond(&p.mu)
	return p, nil
}

// run executes the sweep and returns ctx's error, wrapped, if the
// cancellation left a needed run undone, else the error of the failure
// first in dispatch order.
func (p *pool) run(ctx context.Context) error {
	workers := workers(p.opts.Jobs, len(p.jobs))
	if p.adaptive {
		p.ahead = workers
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.work(ctx)
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		for ji := range p.jobs {
			if needed, _ := p.need(ji); needed && !p.jobs[ji].finished {
				return fmt.Errorf("sweep canceled: %w", err)
			}
		}
	}
	first := len(p.jobs)
	for _, ji := range p.failAt {
		first = min(first, ji)
	}
	if first == len(p.jobs) {
		return nil
	}
	j := &p.jobs[first]
	return fmt.Errorf("scenario %q rep %d (seed %d): %w", j.cfg.Name, j.at[0]%p.reps, j.cfg.Seed, j.err)
}

// workers resolves Options.Jobs for n runs: <= 0 means GOMAXPROCS, and
// the count is clamped to [1, n].
func workers(jobs, n int) int {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	return max(1, min(jobs, n))
}

// work runs jobs until none is left to take, folding each result. The
// lock is released around each run, so a panicking Runner surfaces as
// itself.
func (p *pool) work(ctx context.Context) {
	p.mu.Lock()
	for ji := p.take(ctx); ji >= 0; ji = p.take(ctx) {
		j := &p.jobs[ji]
		p.running++
		p.mu.Unlock()
		res, cached, elapsed, err := p.execute(ctx, j.cfg) // cfg is never written
		p.mu.Lock()
		p.running--
		j.finished, j.res, j.cached, j.elapsed, j.err = true, res, cached, elapsed, err
		if !p.adaptive {
			p.report(ji, j.at[0]/p.reps, Event{})
		}
		for _, s := range j.at {
			p.advance(s / p.reps)
		}
		p.wake.Broadcast()
	}
	p.mu.Unlock()
}

// take claims the first job in dispatch order that a fold needs and may
// run now, waiting while only a run in flight can release one. It returns
// -1 once no job is left to run, or ctx is done.
func (p *pool) take(ctx context.Context) int {
	for ctx.Err() == nil {
		blocked := false
		for ji := p.next; ji < len(p.jobs); ji++ {
			switch needed, ready := p.need(ji); {
			case p.jobs[ji].taken || !needed:
				if ji == p.next {
					p.next++ // stops and failures only ever shrink what is needed
				}
			case ready:
				p.jobs[ji].taken = true
				return ji
			default:
				blocked = true
			}
		}
		if !blocked || p.running == 0 {
			return -1
		}
		p.wake.Wait()
	}
	return -1
}

// need reports whether a fold may still consume job ji — a slot before
// its config's stop index, in a group not failed before it — and whether
// one such slot is released: an adaptive config releases its reps ahead
// at a time, the next ahead once its fold has consumed the ones before.
func (p *pool) need(ji int) (needed, ready bool) {
	for _, s := range p.jobs[ji].at {
		c, r := s/p.reps, s%p.reps
		f := &p.folds[c]
		if r >= f.stop || ji > p.failAt[p.cfgGroup[c]] {
			continue
		}
		if !p.adaptive || r < (f.next/p.ahead+1)*p.ahead {
			return true, true
		}
		needed = true
	}
	return needed, false
}

// execute replays cfg's run from the checkpoint or runs it, and
// checkpoints a run that completed.
func (p *pool) execute(ctx context.Context, cfg scenario.Config) (*scenario.Result, bool, time.Duration, error) {
	if p.opts.Checkpoint != nil {
		if res, ok := p.opts.Checkpoint.Load(cfg); ok {
			return res, true, 0, nil
		}
	}
	start := time.Now()
	res, cached, err := p.opts.Runner(ctx, cfg)
	elapsed := time.Since(start)
	if err == nil && p.opts.Checkpoint != nil {
		err = p.opts.Checkpoint.Store(cfg, res)
	}
	return res, cached, elapsed, err
}

// advance folds config c's finished reps in rep order, up to its stop
// index or its first failure, which fails c's group.
func (p *pool) advance(c int) {
	f := &p.folds[c]
	for f.next < f.stop {
		ji := p.slotJob[c*p.reps+f.next]
		j := &p.jobs[ji]
		if !j.finished {
			return
		}
		if j.err != nil {
			p.failAt[p.cfgGroup[c]] = min(p.failAt[p.cfgGroup[c]], ji)
			return
		}
		f.next++
		if !p.adaptive {
			continue
		}
		v := p.opts.Extract(j.res)
		f.values = append(f.values, v)
		f.mean, f.ci95 = stats.Mean(f.values), stats.CI95Half(f.values)
		decided := false
		if len(f.values) >= p.opts.MinReps {
			f.verdict, decided = p.opts.Rule.decide(f.mean, f.ci95)
		}
		if decided {
			f.stop = f.next
		}
		p.report(ji, c, Event{Value: v, Reps: f.next, Mean: f.mean, CI95: f.ci95, Decided: decided, Verdict: f.verdict})
	}
}

// report hands job ji's event, labelled with config c, to Progress once,
// however many configs declare the run.
func (p *pool) report(ji, c int, ev Event) {
	j := &p.jobs[ji]
	if p.opts.Progress == nil || j.reported {
		return
	}
	j.reported = true
	p.done++
	ev.Experiment, ev.Name, ev.Rep, ev.Seed = p.groups[p.cfgGroup[c]].Name, p.cfgs[c].Name, j.at[0]%p.reps, j.cfg.Seed
	ev.Done, ev.Total, ev.Elapsed, ev.Cached, ev.Err = p.done, len(p.jobs), j.elapsed, j.cached, j.err
	p.opts.Progress(ev)
}

// results returns config c's consumed reps, or nil if its fold stopped
// short. A slot other than its run's first declaration gets a copy
// carrying its own config (a shared run may go by another name there).
func (p *pool) results(c int) []*scenario.Result {
	f := &p.folds[c]
	if f.next < f.stop {
		return nil
	}
	out := make([]*scenario.Result, f.next)
	for r := range out {
		s := c*p.reps + r
		j := &p.jobs[p.slotJob[s]]
		out[r] = j.res
		if j.at[0] != s {
			own := p.cfgs[c]
			own.Seed = DeriveSeed(own.Seed, r)
			shared := *j.res
			shared.Config = own.WithDefaults()
			out[r] = &shared
		}
	}
	return out
}
