package scenario

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"kadre/internal/attack"
	"kadre/internal/churn"
	"kadre/internal/connectivity"
	"kadre/internal/eventsim"
	"kadre/internal/simnet"
	"kadre/internal/snapshot"
	"kadre/internal/traffic"
	"kadre/internal/workload"
)

// Run executes one simulation to completion and discards the warm
// engine binding: RunBoundCtx under a background context.
func Run(cfg Config) (*Result, error) {
	res, _, err := RunBoundCtx(context.Background(), cfg)
	return res, err
}

// Bound is the warm analysis state a finished run leaves behind: the
// connectivity engine still bound to the topology of the last analyzed
// snapshot, and that final capture itself. Long-running services (the
// kadserve arena) keep Bounds alive across queries so follow-up analyses
// against the same scenario never re-pay the simulation or the engine
// bind; batch callers use Run and let it all be collected.
type Bound struct {
	// Engine answers further connectivity queries against the final
	// captured topology. Not safe for concurrent use (see
	// connectivity.Engine); callers serialize access themselves.
	Engine *connectivity.Engine
	// Final is the last snapshot whose graph the engine analyzed, nil
	// when no snapshot had more than one live node (the engine is then
	// unbound and Engine queries are invalid).
	Final *snapshot.SlotSnapshot
	// FinalAvgSeed is the AvgSeed of the final snapshot's Avg sweep, also
	// under MinOnly, which sweeps none: re-running AnalyzeSnapshot with it
	// and the run's SampleFraction reproduces the final point's Min and
	// the fused run's Avg exactly.
	FinalAvgSeed int64
}

// Ready reports whether the bound engine holds an analyzable topology.
func (b *Bound) Ready() bool { return b != nil && b.Final != nil }

// RunBoundCtx executes one simulation — randomized setup joins,
// stabilization, optional traffic and churn, periodic connectivity
// snapshots, exactly as described in §5.3-§5.4 of the paper — and hands
// back the end-of-run engine binding beside the Result. When ctx is
// canceled (or its deadline passes) mid-run the partial run is discarded
// with an error wrapping ctx's cause; a run that completes is
// byte-identical whatever context it ran under. The cancellation signal
// is checked at two grains: the event kernel polls it every
// eventsim.DefaultCancelBatch fired events, and the snapshot callback
// checks it before paying a connectivity analysis — so a canceled run
// stops within one event batch and never starts another max-flow sweep.
func RunBoundCtx(ctx context.Context, cfg Config) (*Result, *Bound, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	start := time.Now()

	sim := eventsim.New(cfg.Seed)
	sim.SetCancel(ctx, 0)
	net := simnet.New(sim, simnet.Config{
		Latency: simnet.UniformLatency{Min: 10 * time.Millisecond, Max: 100 * time.Millisecond},
		Loss:    cfg.Loss.Model(),
	})
	pop := &population{sim: sim, net: net, cfg: cfg.kademliaConfig(), nextAddr: 1}

	// Setup phase: every node joins at a uniformly random instant within
	// [0, Setup), bootstrapping from a random already-joined node (§5.3).
	joinTimes := make([]time.Duration, cfg.Size)
	for i := range joinTimes {
		joinTimes[i] = time.Duration(sim.Rand().Int63n(int64(cfg.Setup)))
	}
	sort.Slice(joinTimes, func(i, j int) bool { return joinTimes[i] < joinTimes[j] })
	var spawnErr error
	for _, at := range joinTimes {
		if _, err := sim.ScheduleAt(at, func() {
			if _, err := pop.spawn(); err != nil && spawnErr == nil {
				spawnErr = err
			}
		}); err != nil {
			return nil, nil, fmt.Errorf("scenario: schedule join: %w", err)
		}
	}

	// Traffic runs through all phases in the with-traffic scenarios.
	var traff *traffic.Generator
	if cfg.Traffic {
		var err error
		traff, err = traffic.NewGenerator(sim, pop.cfg.Bits, cfg.Workload, pop)
		if err != nil {
			return nil, nil, err
		}
		if err := traff.Start(0, cfg.Total()); err != nil {
			return nil, nil, err
		}
	}

	// Churn begins at minute 120 (§5.4).
	churnGen := churn.NewGenerator(sim, cfg.Churn, pop)
	if !cfg.Churn.IsZero() {
		if err := churnGen.Start(cfg.ChurnStart(), cfg.Total()); err != nil {
			return nil, nil, err
		}
	}

	// The generative workload layer rides alongside fixed-rate churn:
	// Poisson arrivals share the churn window, flash crowds and trace
	// events fire at their own absolute times, and Zipf popularity
	// reshapes the traffic generator's key selection. Every draw comes
	// from a splitmix64 stream of the run seed, so the layer never
	// perturbs the kernel RNG the other generators consume.
	var gen *workload.Engine
	if cfg.Gen.Enabled() {
		gen = workload.NewEngine(sim, cfg.Gen, cfg.Seed, pop)
		if err := gen.Start(cfg.ChurnStart(), cfg.Total()); err != nil {
			return nil, nil, err
		}
		if cfg.Gen.Popularity != nil {
			if traff == nil {
				return nil, nil, fmt.Errorf("scenario: popularity generator without traffic")
			}
			pick, err := workload.NewZipfPicker(cfg.Seed, cfg.Gen.Popularity, traff.PoolSize())
			if err != nil {
				return nil, nil, err
			}
			traff.SetKeyPicker(pick)
		}
	}

	// The adversary shares the churn window, with strikes offset half an
	// interval from the phase boundary (see Config.Attack). It is started
	// only after the snapshots are scheduled, so at a shared instant the
	// snapshot's event precedes the strike's: a snapshot at time t always
	// observes exactly the strikes that fired strictly before t.
	adversary, err := attack.NewEngine(sim, cfg.Attack, pop)
	if err != nil {
		return nil, nil, err
	}

	// Connectivity snapshots: every SnapshotInterval, plus one at the very
	// end of the run. One engine serves every snapshot, fusing the Min
	// (smallest-out-degree, pruned) and Avg (seeded uniform, exact) sweeps
	// into a single pass and reusing its solver scratch across snapshots
	// instead of rebuilding it per analyzer. Captures use stable-slot
	// population indexing: each node keeps a persistent vertex slot for
	// its lifetime (tombstoned on departure, recycled for joins), so the
	// snapshot graphs of consecutive captures live in one vertex space
	// even across joins, churn departures and adversarial strikes, and the
	// binder rebinds them incrementally — an identical capture keeps the
	// engine's memo. Only a slot-table growth — a new all-time-high live
	// count, e.g. during the setup joins — forces a full bind. Results are
	// reported in the canonical compacted numbering via the capture's
	// Order map, identical to what dense per-snapshot captures produced.
	res := &Result{Config: cfg}
	engine := connectivity.MustNewEngine(connectivity.EngineOptions{Workers: cfg.Workers})
	binder := connectivity.NewIncrementalBinder(engine)
	// Pre-size the slot table for the configured population so the setup
	// join burst assigns slots without reallocating the table per wave.
	var slots snapshot.SlotIndex
	slots.Reserve(cfg.Size)
	// The last analyzed capture and its Avg-sweep seed, kept so RunBoundCtx
	// can hand back a warm engine binding with enough context to
	// reproduce (or re-sample) the final point's analysis.
	var lastSnap *snapshot.SlotSnapshot
	var lastAvgSeed int64
	snap := func() {
		// Snapshot-boundary cancellation check: the analysis below is the
		// run's expensive unit of work, and the kernel's event-batch poll
		// cannot interrupt a max-flow sweep already inside one event. A
		// canceled query therefore never starts another analysis; Stop
		// makes the kernel return without draining cheaper events first.
		if ctx.Err() != nil {
			sim.Stop()
			return
		}
		s := snapshot.CaptureSlots(sim.Now(), pop.nodes, &slots)
		point := SnapshotStat{
			Time: sim.Now(), N: s.N(), Edges: s.Graph.M(),
			SCC: s.LargestSCCFraction(), Removed: adversary.Removed(),
		}
		if s.N() > 1 {
			point.Symmetry = s.Graph.SymmetryRatio()
			binder.BindNextSlots(s.Graph, s.Order)
			avgSeed := cfg.Seed + int64(len(res.Points))
			sr := engine.AnalyzeSnapshot(connectivity.SnapshotQuery{
				SampleFraction: cfg.SampleFraction,
				AvgSeed:        avgSeed,
				MinOnly:        cfg.MinOnly,
			})
			lastSnap, lastAvgSeed = s, avgSeed
			point.Min = sr.Min.Min
			switch {
			case cfg.MinOnly:
				point.Avg = math.NaN() // not measured, not the fallback
			case sr.Avg.Pairs == 0:
				// The uniform sample yielded no evaluable pair (or the
				// graph was complete): fall back to the definitional n-1.
				point.Avg = float64(s.N() - 1)
			default:
				point.Avg = sr.Avg.Avg
			}
		}
		res.Points = append(res.Points, point)
		cfg.logf("%s t=%3.0fm n=%4d edges=%6d min=%3d avg=%6.1f sym=%.3f",
			cfg.Name, sim.Now().Minutes(), point.N, point.Edges, point.Min, point.Avg, point.Symmetry)
		if cfg.OnSnapshot != nil {
			cfg.OnSnapshot(s.Dense(), point)
		}
		// End-of-snapshot memory governance, off the analysis hot path:
		// compact the slot table once vacancies outweigh the policy's slack
		// budget (renumbering the slot space, which the next capture absorbs
		// through the binder's full-bind fallback). It changes no measured
		// point — the churn oracle holds governed engines to bit-identical
		// answers across every compaction event.
		if cfg.Governance.SlotCompactionDue(slots.Len(), slots.Live()) {
			slots.Compact()
			res.SlotCompactions++
		}
	}
	for at := cfg.SnapshotInterval; at < cfg.Total(); at += cfg.SnapshotInterval {
		if _, err := sim.ScheduleAt(at, snap); err != nil {
			return nil, nil, fmt.Errorf("scenario: schedule snapshot: %w", err)
		}
	}
	if _, err := sim.ScheduleAt(cfg.Total(), snap); err != nil {
		return nil, nil, fmt.Errorf("scenario: schedule final snapshot: %w", err)
	}

	if cfg.Attack.Enabled() {
		if err := adversary.Start(cfg.ChurnStart()+cfg.Attack.Interval/2, cfg.Total()); err != nil {
			return nil, nil, err
		}
	}

	sim.RunUntil(cfg.Total())
	if err := ctx.Err(); err != nil {
		// The partial run is discarded wholesale: no Result, no Bound, so
		// a canceled replication can never park half-simulated state in a
		// caller's cache (the kadserve arena relies on this).
		return nil, nil, fmt.Errorf("scenario %q: run canceled: %w", cfg.Name, err)
	}
	if spawnErr != nil {
		return nil, nil, spawnErr
	}
	if errs := churnGen.Errs(); len(errs) > 0 {
		return nil, nil, fmt.Errorf("scenario: churn additions failed: %w", errs[0])
	}
	if gen != nil {
		if errs := gen.Errs(); len(errs) > 0 {
			return nil, nil, fmt.Errorf("scenario: workload joins failed: %w", errs[0])
		}
		res.WorkloadJoins = gen.Joins()
		res.WorkloadLeaves = gen.Leaves()
	}

	res.IncrementalBinds = binder.IncrementalBinds()
	res.FullBinds = binder.FullBinds()
	res.MembershipRebinds = engine.MembershipRebinds()
	res.SlotUtilization = slots.Utilization()
	res.ChurnAdded = churnGen.Added()
	res.ChurnRemoved = churnGen.Removed()
	res.AttackRemoved = adversary.Removed()
	res.Victims = adversary.Victims()
	if traff != nil {
		res.TrafficOps = traff.Lookups() + traff.Stores()
	}
	res.Network = net.Stats()
	res.Elapsed = time.Since(start)
	return res, &Bound{Engine: engine, Final: lastSnap, FinalAvgSeed: lastAvgSeed}, nil
}
