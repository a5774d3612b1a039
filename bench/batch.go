package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"time"

	"kadre/internal/scenario"
	"kadre/internal/sweep"
	"kadre/internal/workload"
)

// minPasses is the floor on timed passes, whatever -seconds says.
const minPasses = 3

// loadBatch is the set-up of a batch workload: read, strictly decode and
// resolve the committed spec file into runnable configs, exactly as
// kadsweep -scenario does. The spec pins its own scale.
func loadBatch(o options) ([]scenario.Config, error) {
	sp, err := workload.Load(filepath.Join(o.dir, "workloads", o.workload+".json"))
	if err != nil {
		return nil, err
	}
	exp, err := scenario.FromSpec(sp, scenario.ReducedScale, o.seed)
	if err != nil {
		return nil, err
	}
	if o.quick {
		exp.Configs = exp.Configs[:2]
		for i := range exp.Configs {
			shrink(&exp.Configs[i])
		}
	}
	return exp.Configs, nil
}

// shrink cuts a config down for the -quick smoke: the same code paths
// on a sixteen-node network simulated for twenty minutes.
func shrink(cfg *scenario.Config) {
	cfg.Size = 16
	cfg.Setup = 5 * time.Minute
	cfg.Stabilize = 5 * time.Minute
	cfg.SnapshotInterval = 5 * time.Minute
	if cfg.ChurnPhase > 0 {
		cfg.ChurnPhase = 10 * time.Minute
	}
	if cfg.Traffic {
		cfg.Workload.LookupsPerMinute = 2
	}
	if cfg.Attack.Enabled() {
		cfg.Attack.Budget = 4
	}
}

// pass is the outcome of one sweep over a workload's configs.
type pass struct {
	seconds float64
	sets    []*sweep.RunSet
	digest  string
}

// runPass executes one pass — one sweep.Run over the configs, one rep
// each — and hashes the sweep JSON document it produces.
func runPass(cfgs []scenario.Config, jobs int) (pass, error) {
	var p pass
	t0 := time.Now()
	sets, err := sweep.Run(cfgs, sweep.Options{Jobs: jobs})
	p.seconds = time.Since(t0).Seconds()
	if err != nil {
		return p, err
	}
	p.sets = sets
	p.digest, err = setsDigest(sets)
	return p, err
}

// setsDigest hashes the byte-deterministic sweep document of a pass.
func setsDigest(sets []*sweep.RunSet) (string, error) {
	var buf bytes.Buffer
	if err := sweep.WriteJSON(&buf, sweep.JSONMeta{Experiment: "bench"}, sets); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))[:16], nil
}

// checkDigests holds every pass to the first one's result bytes.
func checkDigests(digests []string) error {
	for i, d := range digests {
		if d != digests[0] {
			return fmt.Errorf("pass %d result digest %s differs from pass 0 digest %s", i, d, digests[0])
		}
	}
	return nil
}

// checkPoints holds a run's series to having captured any snapshot at
// all and, at every snapshot with more than one live node, to
// 0 <= Min, Avg <= N-1. Min <= Avg is held only where it is an invariant:
// at sample fraction 1, where both sweep every source. Below that Min
// comes from the smallest-out-degree sources and Avg from a uniform draw,
// and on a near-complete graph (sim-traffic at k >= 20) a seed exists
// where the draw holds a pair below the sampled minimum.
func checkPoints(res *scenario.Result) error {
	if len(res.Points) == 0 {
		return fmt.Errorf("run %s captured no snapshot", res.Config.Name)
	}
	for _, pt := range res.Points {
		if pt.N <= 1 {
			continue
		}
		top := float64(pt.N - 1)
		if pt.Min < 0 || float64(pt.Min) > top || !(pt.Avg >= 0 && pt.Avg <= top+1e-9) {
			return fmt.Errorf("run %s t=%v: min %d, avg %g outside [0, %g]", res.Config.Name, pt.Time, pt.Min, pt.Avg, top)
		}
		if res.Config.SampleFraction >= 1 && float64(pt.Min) > pt.Avg+1e-9 {
			return fmt.Errorf("run %s t=%v: min %d > avg %g", res.Config.Name, pt.Time, pt.Min, pt.Avg)
		}
	}
	return nil
}

// batchTimed is the untraced run of a batch workload: passes back to
// back, with default Jobs and Workers, until -seconds have gone by. The
// operation of a batch workload is the pass — one regeneration of the
// spec's figure.
func batchTimed(o options, r *report) error {
	// The set-up takes some twenty microseconds, so it is paid many times,
	// over about a second: a slow spell of the host lasts longer than the
	// tenth of a second that 5000 set-ups take, and moved their median by
	// a third between runs.
	groups, per := 40, 1000
	if o.quick {
		groups, per = 2, 10
	}
	var cfgs []scenario.Config
	setupS, err := timeSetups(groups, per, func() (err error) {
		cfgs, err = loadBatch(o)
		return err
	})
	if err != nil {
		return err
	}
	r.setSamples("setup_s", setupS)

	floor, window := minPasses, time.Duration(o.seconds)*time.Second
	if o.quick {
		floor, window = 1, 0
	}
	var passS []float64
	var digests []string
	var rss rssMeter
	begin := time.Now()
	for n := 0; n < floor || time.Since(begin) < window; n++ {
		rss.reset()
		p, err := runPass(cfgs, 0)
		rss.mark()
		r.Attempted++
		if err == nil {
			err = checkSets(p.sets)
		}
		if err != nil {
			r.Failed++
			r.fail("pass %d: %v", n, err)
			continue
		}
		passS = append(passS, p.seconds)
		digests = append(digests, p.digest)
	}
	wall := time.Since(begin).Seconds()
	if len(digests) == 0 {
		return fmt.Errorf("no pass completed")
	}
	if err := checkDigests(digests); err != nil {
		r.Failed++
		r.fail("%v", err)
	}
	r.ResultDigest = digests[0]

	r.setSamples("run_s", passS)
	r.setSamples("peak_rss_mb", rss.peaksMB)
	r.set("qps", float64(len(passS))/wall)
	// Every operation of a batch workload is of one class — it simulates
	// and binds from scratch — so each class latency reports the pass.
	passMS := make([]float64, len(passS))
	for i, s := range passS {
		passMS[i] = s * 1e3
	}
	for _, name := range []string{"cold_p50_ms", "warm_p50_ms", "resample_p50_ms"} {
		r.setSamples(name, passMS)
	}
	return nil
}

// checkSets applies checkPoints to every run of a pass.
func checkSets(sets []*sweep.RunSet) error {
	for _, set := range sets {
		for _, res := range set.Reps {
			if err := checkPoints(res); err != nil {
				return err
			}
		}
	}
	return nil
}
