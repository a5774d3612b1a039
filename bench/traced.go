package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"

	"kadre/internal/attack"
	"kadre/internal/connectivity"
	"kadre/internal/graph"
	"kadre/internal/scenario"
	"kadre/internal/serve"
	"kadre/internal/simnet"
	"kadre/internal/snapshot"
	"kadre/internal/sweep"
)

// recording is one traced scenario run: its result, the warm binding it
// left behind, and every dense snapshot it captured with the analysis
// the run itself made of it.
type recording struct {
	res   *scenario.Result
	bound *scenario.Bound
	snaps []*snapshot.Snapshot
	stats []scenario.SnapshotStat
	span  int
}

// replayPoint is the replayed analysis of one recorded snapshot.
type replayPoint struct {
	n   int
	min int
	avg float64
}

// traced is the traced run of a workload: per-layer metrics, measured at
// GOMAXPROCS = 1 so that a span's duration is busy CPU time.
//
// Every workload is first treated as a list of scenario configs (the
// spec's runs; for the serve workload, the scenario behind each key): a
// serial traced pass records each run's snapshots, a replay pushes the
// recorded sequence through the production analysis recipe call by call,
// and the run span's self time — run minus replayed children — is the
// simulator's share. Untraced serial and parallel passes give the
// tracing overhead and the sweep pool's speed-up, and probes built from
// public constructors time the kernel, the network, a lookup and the two
// production solvers at the workload's own size and k. The serve
// workload then replays the head of its stream with client spans.
func traced(o options, kind string, r *report) error {
	var cfgs []scenario.Config
	var sp *serveSpec
	var err error
	if kind == "serve" {
		if sp, err = loadServe(o); err != nil {
			return err
		}
		cfgs, err = sp.keyConfigs(o.seed)
	} else {
		cfgs, err = loadBatch(o)
	}
	if err != nil {
		return err
	}

	tr := newTracer()
	runtime.GOMAXPROCS(1)
	// The first pass in a process runs ~8 % slow (heap growth, page
	// faults). The traced run compares three passes with each other, so
	// it first runs one config, discarded, and none of them pays that.
	if _, err := scenario.Run(cfgs[0]); err != nil {
		return err
	}
	recs, err := tracedPass(tr, cfgs, r)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		replay(tr, rec, r)
	}
	layerMetrics(tr, recs, r)
	if err := untracedPasses(tr, cfgs, recs, r); err != nil {
		return err
	}
	if err := probes(o, recs[0], r); err != nil {
		return err
	}
	if kind == "serve" {
		if err := serveTraced(o, sp, tr, recs[0], r); err != nil {
			return err
		}
	}
	return tr.write(filepath.Join(o.dir, "out", "trace-"+o.workload+".json"))
}

// keyConfigs resolves the scenario behind every key of the stream, the
// way the server resolves the query.
func (sp *serveSpec) keyConfigs(seed int64) ([]scenario.Config, error) {
	precision := sp.Precision
	var cfgs []scenario.Config
	for _, key := range sp.keySpecs(seed) {
		q, err := serve.QuerySpec{Scenario: key, Precision: &precision}.Resolve()
		if err != nil {
			return nil, err
		}
		cfgs = append(cfgs, q.Config)
	}
	return cfgs, nil
}

// tracedPass runs every config serially under a span of its own,
// recording each snapshot, and reads the allocator and collector deltas
// over the whole pass.
func tracedPass(tr *tracer, cfgs []scenario.Config, r *report) ([]*recording, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	recs := make([]*recording, 0, len(cfgs))
	for _, cfg := range cfgs {
		rec := &recording{}
		cfg.OnSnapshot = func(s *snapshot.Snapshot, st scenario.SnapshotStat) {
			rec.snaps = append(rec.snaps, s)
			rec.stats = append(rec.stats, st)
		}
		r.Attempted++
		rec.span = tr.start("scenario.run", cfg.Name, 0)
		res, bound, err := scenario.RunBoundCtx(context.Background(), cfg)
		tr.end(rec.span)
		if err != nil {
			return nil, fmt.Errorf("traced run %s: %w", cfg.Name, err)
		}
		rec.res, rec.bound = res, bound
		if err := checkPoints(res); err != nil {
			r.Failed++
			r.fail("traced pass: %v", err)
		}
		recs = append(recs, rec)
	}
	runtime.ReadMemStats(&after)
	r.set("scenario.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	r.set("scenario.mallocs_k", float64(after.Mallocs-before.Mallocs)/1000)
	r.set("runtime.gc_cycles", float64(after.NumGC-before.NumGC))
	r.set("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	return recs, nil
}

// replay pushes a run's recorded snapshots through the recipe the runner
// uses in production — slot-graph capture, slot diff, incremental bind,
// fused Min/Avg analysis with the run's own sampling and seeds, policy
// maintenance — each call a child span of the run, and holds the
// replayed analysis to the in-run one at every snapshot.
func replay(tr *tracer, rec *recording, r *report) {
	cfg := rec.res.Config // the effective, defaulted config
	run := cfg.Name
	engine, err := connectivity.NewEngine(connectivity.EngineOptions{Workers: cfg.Workers})
	if err != nil {
		r.fail("replay %s: %v", run, err)
		return
	}
	engine.SetGovernance(cfg.Governance)
	binder := connectivity.NewIncrementalBinder(engine)
	var slots snapshot.SlotIndex
	slots.Reserve(cfg.Size)

	var prev *graph.Digraph
	var prevOrder []int
	var delta graph.Delta
	points := make([]replayPoint, len(rec.snaps))
	for i, s := range rec.snaps {
		id := tr.start("snapshot.slotgraph", run, rec.span)
		g, order := snapshot.BuildSlotGraph(&slots, s.Addrs, func(emit func(u, v simnet.Addr)) {
			for _, e := range s.Graph.Edges() {
				emit(s.Addrs[e.U], s.Addrs[e.V])
			}
		})
		tr.end(id)

		points[i] = replayPoint{n: s.N()}
		if s.N() > 1 {
			if prev != nil && prev.N() == g.N() {
				// The binder diffs again inside BindNextSlots; this call
				// of its own is what graph.diff_s times.
				id = tr.start("graph.diff", run, rec.span)
				graph.DiffSlotsInto(prev, g, prevOrder, order, &delta)
				tr.end(id)
			}
			id = tr.start("connectivity.bind", run, rec.span)
			binder.BindNextSlots(g, order)
			tr.end(id)

			id = tr.start("connectivity.analyse", run, rec.span)
			sr := engine.AnalyzeSnapshot(connectivity.SnapshotQuery{
				SampleFraction: cfg.SampleFraction,
				AvgSeed:        cfg.Seed + int64(i),
			})
			tr.end(id)
			points[i].min, points[i].avg = sr.Min.Min, sr.Avg.Avg
			if sr.Avg.Pairs == 0 {
				points[i].avg = float64(s.N() - 1)
			}
			r.add("connectivity.pairs", float64(sr.Min.Pairs+sr.Avg.Pairs))

			if cfg.Attack.Strategy == attack.Cutset {
				// What the adversary's private engine pays per strike.
				id = tr.start("connectivity.graphcut", run, rec.span)
				_, _, _, err := engine.GraphCut(connectivity.Query{SampleFraction: cfg.Attack.SampleFraction})
				tr.end(id)
				if err != nil {
					r.fail("replay %s snapshot %d: graph cut: %v", run, i, err)
				}
			}
			prev, prevOrder = g, order
		}
		engine.Maintain()
		if cfg.Governance.SlotCompactionDue(slots.Len(), slots.Live()) {
			slots.Compact()
		}
	}
	if err := checkReplay(run, rec.stats, points); err != nil {
		r.Failed++
		r.fail("%v", err)
	}
	if got, want := [3]int{binder.FullBinds(), binder.IncrementalBinds(), engine.MembershipRebinds()},
		[3]int{rec.res.FullBinds, rec.res.IncrementalBinds, rec.res.MembershipRebinds}; got != want {
		r.Failed++
		r.fail("replay %s: full/incremental/membership binds %v, the run made %v", run, got, want)
	}
	if n := engine.RebindFallbacks(); n != 0 {
		r.Failed++
		r.fail("replay %s: %d rebind fallbacks", run, n)
	}
	r.add("connectivity.full_binds", float64(binder.FullBinds()))
	r.add("connectivity.incremental_binds", float64(binder.IncrementalBinds()))
	r.add("connectivity.membership_rebinds", float64(engine.MembershipRebinds()))
	r.add("connectivity.rebind_fallbacks", float64(engine.RebindFallbacks()))
}

// checkReplay holds the replayed analysis to the in-run Min/Avg at every
// snapshot.
func checkReplay(run string, inRun []scenario.SnapshotStat, replayed []replayPoint) error {
	if len(inRun) != len(replayed) {
		return fmt.Errorf("replay %s: %d snapshots replayed, the run analysed %d", run, len(replayed), len(inRun))
	}
	for i, st := range inRun {
		p := replayed[i]
		if st.N != p.n || (p.n > 1 && (st.Min != p.min || st.Avg != p.avg)) {
			return fmt.Errorf("replay %s snapshot %d: n/min/avg %d/%d/%v, the run measured %d/%d/%v",
				run, i, p.n, p.min, p.avg, st.N, st.Min, st.Avg)
		}
	}
	return nil
}

// layerMetrics turns the spans and results of the traced pass into the
// per-layer times and the exact counts.
func layerMetrics(tr *tracer, recs []*recording, r *report) {
	var sent, lost, ops, added, removed, struck, snaps float64
	for _, rec := range recs {
		sent += float64(rec.res.Network.Sent)
		lost += float64(rec.res.Network.Lost)
		ops += float64(rec.res.TrafficOps)
		added += float64(rec.res.ChurnAdded)
		removed += float64(rec.res.ChurnRemoved)
		struck += float64(rec.res.AttackRemoved)
		snaps += float64(len(rec.res.Points))
	}
	r.set("simnet.msgs_sent", sent)
	r.set("simnet.msgs_lost", lost)
	r.set("traffic.ops", ops)
	r.set("churn.added", added)
	r.set("churn.removed", removed)
	r.set("attack.removed", struck)
	r.set("scenario.snapshots", snaps)

	slotgraph := tr.total("snapshot.slotgraph").Seconds()
	bind := tr.total("connectivity.bind").Seconds()
	analyse := tr.total("connectivity.analyse").Seconds()
	r.set("snapshot.slotgraph_s", slotgraph)
	r.set("graph.diff_s", tr.total("graph.diff").Seconds())
	r.set("connectivity.bind_s", bind)
	r.set("connectivity.analyse_s", analyse)
	// Self time of the run spans: what is left once the replayed analysis
	// recipe is taken out is the event kernel, the network, the protocol
	// and, on an attack workload, the adversary inside the kernel.
	simulate := tr.total("scenario.run").Seconds() - slotgraph - bind - analyse
	r.set("scenario.simulate_s", simulate)
	if sent > 0 {
		r.set("scenario.us_per_msg", simulate/sent*1e6)
	}
	if pairs := r.measured["connectivity.pairs"]; pairs > 0 {
		r.set("connectivity.us_per_pair", analyse/pairs*1e6)
	}
	full, inc := r.measured["connectivity.full_binds"], r.measured["connectivity.incremental_binds"]
	if full+inc > 0 {
		r.set("connectivity.incremental_bind_ratio", inc/(full+inc))
	}
	if cuts := tr.durationsMS("connectivity.graphcut"); len(cuts) > 0 {
		r.setSamples("connectivity.graphcut_ms", cuts)
	}
}

// untracedPasses runs the configs once more serially and once on the
// default worker pool, both untraced, for the tracing overhead and the
// pool's speed-up, and holds all three passes to one result digest.
func untracedPasses(tr *tracer, cfgs []scenario.Config, recs []*recording, r *report) error {
	sets := make([]*sweep.RunSet, len(recs))
	for i, rec := range recs {
		// The sweep document serialises the config the caller passed in,
		// not the defaulted one the result carries.
		sets[i] = &sweep.RunSet{Config: cfgs[i], Reps: []*scenario.Result{rec.res}}
		if err := sets[i].Aggregate(); err != nil {
			return err
		}
	}
	tracedDigest, err := setsDigest(sets)
	if err != nil {
		return err
	}

	r.Attempted += 2 * len(cfgs)
	serial, err := runPass(cfgs, 1)
	if err != nil {
		return fmt.Errorf("serial pass: %w", err)
	}
	runtime.GOMAXPROCS(procs)
	par, err := runPass(cfgs, 0)
	runtime.GOMAXPROCS(1)
	if err != nil {
		return fmt.Errorf("parallel pass: %w", err)
	}
	if err := checkDigests([]string{serial.digest, tracedDigest, par.digest}); err != nil {
		r.Failed += len(cfgs)
		r.fail("serial, traced, parallel: %v", err)
	}
	r.ResultDigest = serial.digest

	r.set("sweep.serial_s", serial.seconds)
	r.set("sweep.par_speedup", serial.seconds/par.seconds)
	r.set("trace.overhead_frac", tr.total("scenario.run").Seconds()/serial.seconds-1)
	return nil
}
