package scenario

import (
	"errors"
	"io/fs"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"kadre/internal/attack"
	"kadre/internal/simnet"
	"kadre/internal/workload"
	"kadre/specs"
)

// tinyConfig is a fast-but-meaningful run used across the tests.
func tinyConfig(name string, seed int64) Config {
	return Config{
		Name: name, Seed: seed, Size: 40, K: 5, Staleness: 1,
		Setup: 10 * time.Minute, Stabilize: 20 * time.Minute,
		SnapshotInterval: 10 * time.Minute, SampleFraction: 0.1,
	}
}

// runJobs runs cfgs across at most jobs workers, results in input order:
// the determinism tests compare jobs=1 against jobs=8.
func runJobs(t *testing.T, cfgs []Config, jobs int) []*Result {
	t.Helper()
	out := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	next := make(chan int, len(cfgs))
	for i := range cfgs {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = Run(cfgs[i])
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRunStableNetworkReachesK(t *testing.T) {
	cfg := tinyConfig("stable", 1)
	cfg.Traffic = true
	cfg.ChurnPhase = 10 * time.Minute // observation only; zero churn
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no snapshots")
	}
	last := res.Points[len(res.Points)-1]
	if last.N != 40 {
		t.Fatalf("final network size %d, want 40", last.N)
	}
	// The paper's central observation: after stabilization the minimum
	// connectivity is roughly k.
	if last.Min < cfg.K-2 {
		t.Fatalf("final min connectivity %d far below k=%d", last.Min, cfg.K)
	}
	if last.Avg < float64(last.Min) {
		t.Fatalf("avg %f below min %d", last.Avg, last.Min)
	}
	if last.Symmetry < 0.3 {
		t.Fatalf("symmetry ratio %f implausibly low", last.Symmetry)
	}
}

func TestRunDeterministicAcrossSeeds(t *testing.T) {
	run := func() *Result {
		res, err := Run(tinyConfig("det", 42))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Points) != len(b.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		pa, pb := a.Points[i], b.Points[i]
		if pa.N != pb.N || pa.Edges != pb.Edges || pa.Min != pb.Min || pa.Avg != pb.Avg {
			t.Fatalf("point %d differs: %+v vs %+v", i, pa, pb)
		}
	}
	if a.Network != b.Network {
		t.Fatalf("network stats differ: %+v vs %+v", a.Network, b.Network)
	}
}

func TestRunChurnRemovesAndAdds(t *testing.T) {
	cfg := tinyConfig("churny", 3)
	cfg.Traffic = true
	cfg.Churn = workload.Churn1_1
	cfg.ChurnPhase = 15 * time.Minute
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ChurnAdded == 0 || res.ChurnRemoved == 0 {
		t.Fatalf("churn did not run: %d/%d", res.ChurnAdded, res.ChurnRemoved)
	}
	// 1/1 churn keeps the size stable.
	last := res.Points[len(res.Points)-1]
	if last.N < 35 || last.N > 45 {
		t.Fatalf("final size %d drifted under 1/1 churn", last.N)
	}
}

func TestRunDrainChurn(t *testing.T) {
	cfg := tinyConfig("drain", 4)
	cfg.Churn = workload.Churn0_1
	cfg.ChurnPhase = 20 * time.Minute
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if last.N >= first.N {
		t.Fatalf("0/1 churn did not shrink the network: %d -> %d", first.N, last.N)
	}
	if res.ChurnAdded != 0 {
		t.Fatalf("0/1 churn added %d nodes", res.ChurnAdded)
	}
}

func TestRunMessageLossStillConnects(t *testing.T) {
	cfg := tinyConfig("lossy", 5)
	cfg.Traffic = true
	cfg.Loss = simnet.LossMedium
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Network.Lost == 0 {
		t.Fatal("medium loss dropped no messages")
	}
	last := res.Points[len(res.Points)-1]
	if last.N != 40 {
		t.Fatalf("nodes vanished without churn: %d", last.N)
	}
}

func TestResultSeries(t *testing.T) {
	cfg := tinyConfig("series", 6)
	cfg.ChurnPhase = 10 * time.Minute
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	min, avg, size := res.MinSeries(), res.AvgSeries(), res.SizeSeries()
	if min.Len() != len(res.Points) || avg.Len() != len(res.Points) || size.Len() != len(res.Points) {
		t.Fatal("series lengths mismatch")
	}
	sum := res.ChurnWindowSummary()
	if sum.Count == 0 {
		t.Fatal("churn window summary empty")
	}
	if math.IsNaN(sum.Mean) {
		t.Fatal("summary mean NaN")
	}
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		want   string // substring of the error
	}{
		{"size too small", func(c *Config) { c.Size = 1 }, "size"},
		{"negative churn phase", func(c *Config) { c.ChurnPhase = -time.Minute }, "phase durations"},
		{"churn without phase", func(c *Config) { c.Churn = workload.Churn1_1; c.ChurnPhase = 0 }, "zero churn phase"},
		{"bad k", func(c *Config) { c.K = -3 }, ""},
		{"bad bits", func(c *Config) { c.Bits = 33 }, ""},
		{"negative sample fraction", func(c *Config) { c.SampleFraction = -0.5 }, "sample fraction"},
		{"NaN sample fraction", func(c *Config) { c.SampleFraction = math.NaN() }, "sample fraction"},
		{"negative attack sample fraction", func(c *Config) {
			c.ChurnPhase = 10 * time.Minute
			c.Attack = attack.Config{Strategy: attack.Cutset, Kills: 1, Interval: time.Minute, SampleFraction: -0.5}
		}, "sample fraction"},
		{"NaN attack sample fraction", func(c *Config) {
			c.ChurnPhase = 10 * time.Minute
			c.Attack = attack.Config{Strategy: attack.Cutset, Kills: 1, Interval: time.Minute, SampleFraction: math.NaN()}
		}, "sample fraction"},
		// OneWayLoss maps a level outside Table 1 to 0: such a run would
		// be silently lossless under a key of its own.
		{"loss level past Table 1", func(c *Config) { c.Loss = simnet.LossLevel(9) }, "loss level LossLevel(9)"},
		{"negative loss level", func(c *Config) { c.Loss = -1 }, "loss level LossLevel(-1)"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := tinyConfig("bad", 1)
			tt.mutate(&cfg)
			if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("err = %v, want a validation error mentioning %q", err, tt.want)
			}
		})
	}
}

func TestConfigPhaseArithmetic(t *testing.T) {
	cfg := Config{Size: 10, Setup: 30 * time.Minute, Stabilize: 90 * time.Minute, ChurnPhase: 100 * time.Minute}
	if cfg.ChurnStart() != 120*time.Minute {
		t.Fatalf("ChurnStart = %v, want 120m", cfg.ChurnStart())
	}
	if cfg.Total() != 220*time.Minute {
		t.Fatalf("Total = %v, want 220m", cfg.Total())
	}
}

func TestPaperDefaultPhases(t *testing.T) {
	cfg := Config{Size: 10}.WithDefaults()
	if cfg.Setup != 30*time.Minute || cfg.Stabilize != 90*time.Minute {
		t.Fatalf("default phases %v/%v do not match §5.4's 30/90 minutes", cfg.Setup, cfg.Stabilize)
	}
	if cfg.SampleFraction != 0.02 {
		t.Fatalf("default sample fraction %v, want the paper's 0.02", cfg.SampleFraction)
	}
}

func TestScalePresets(t *testing.T) {
	if PaperScale.Small != 250 || PaperScale.Large != 2500 {
		t.Fatal("paper scale sizes wrong")
	}
	for _, s := range []Scale{PaperScale, ReducedScale, TinyScale} {
		exps, err := s.Experiments(1)
		if err != nil {
			t.Fatalf("scale %s: %v", s.Name, err)
		}
		if len(exps) != 16 {
			t.Fatalf("scale %s has %d experiments, want 16", s.Name, len(exps))
		}
		seen := map[string]bool{}
		for _, e := range exps {
			if seen[e.ID] {
				t.Fatalf("duplicate experiment id %q", e.ID)
			}
			seen[e.ID] = true
			if len(e.Configs) == 0 {
				t.Fatalf("experiment %s has no configs", e.ID)
			}
			for _, cfg := range e.Configs {
				full := cfg.WithDefaults()
				if err := full.Validate(); err != nil {
					t.Fatalf("experiment %s config %q invalid: %v", e.ID, cfg.Name, err)
				}
			}
		}
	}
}

// TestCatalogueIsSpecsDir holds the Go-side list of experiment ids and
// the spec files embedded from specs/ equal, and every file's id equal
// to its name.
func TestCatalogueIsSpecsDir(t *testing.T) {
	files, err := fs.Glob(specs.FS, "*.json")
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(catalogue))
	for i, id := range catalogue {
		want[i] = id + ".json"
	}
	slices.Sort(want)
	if !slices.Equal(files, want) {
		t.Fatalf("specs/ holds %v, the catalogue lists %v", files, want)
	}
	for _, id := range catalogue {
		if e := tinyExperiment(t, id); e.ID != id {
			t.Fatalf("specs/%s.json declares id %q", id, e.ID)
		}
	}
}

func TestExperimentByID(t *testing.T) {
	if _, err := TinyScale.ExperimentByID("figure2", 1); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"figure99", "../specs/figure2", "specs"} {
		if _, err := TinyScale.ExperimentByID(id, 1); err == nil {
			t.Fatalf("unknown id %q should fail", id)
		}
	}
}

// tinyExperiment resolves a catalogue experiment at the tiny scale.
func tinyExperiment(t *testing.T, id string) Experiment {
	t.Helper()
	exp, err := TinyScale.ExperimentByID(id, 1)
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"paper", "reduced", "tiny"} {
		s, err := ScaleByName(name)
		if err != nil || s.Name != name {
			t.Errorf("ScaleByName(%q) = %v, %v", name, s.Name, err)
		}
	}
	if s, err := ScaleByName(""); err != nil || s.Name != "reduced" {
		t.Error("empty name should default to reduced")
	}
	if _, err := ScaleByName("huge"); err == nil {
		t.Error("unknown scale should fail")
	}
}

func TestBucketSizeSweepMatchesPaper(t *testing.T) {
	// The k-sweep figures must sweep exactly the paper's bucket sizes.
	want := []int{5, 10, 20, 30}
	for _, id := range []string{"figure2", "figure3", "figure4", "figure5", "figure6", "figure7", "figure8", "figure9"} {
		exp := tinyExperiment(t, id)
		if len(exp.Configs) != len(want) {
			t.Fatalf("%s has %d configs", id, len(exp.Configs))
		}
		for i, cfg := range exp.Configs {
			if cfg.K != want[i] {
				t.Fatalf("%s config %d has k=%d", id, i, cfg.K)
			}
		}
	}
}

func TestFigure10Composition(t *testing.T) {
	exp := tinyExperiment(t, "figure10")
	// 2 sizes x 3 curves x 4 k values.
	if len(exp.Configs) != 24 {
		t.Fatalf("figure10 has %d configs, want 24", len(exp.Configs))
	}
	alpha5, large := 0, 0
	for _, cfg := range exp.Configs {
		if cfg.Alpha == 5 {
			alpha5++
			if cfg.Churn != workload.Churn10_10 {
				t.Fatal("alpha=5 runs must use churn 10/10")
			}
		}
		if cfg.Size == TinyScale.Large {
			large++
		}
	}
	if alpha5 != 8 || large != 12 {
		t.Fatalf("%d alpha=5 and %d large configs, want 8 and 12", alpha5, large)
	}
}

func TestSection57Composition(t *testing.T) {
	exp := tinyExperiment(t, "bitlength")
	if len(exp.Configs) != 4 {
		t.Fatalf("bitlength experiment has %d configs, want 4", len(exp.Configs))
	}
	bits := map[int]int{}
	for _, cfg := range exp.Configs {
		bits[cfg.Bits]++
	}
	if bits[80] != 2 || bits[160] != 2 {
		t.Fatalf("bit-length split %v, want 2x80 and 2x160", bits)
	}
}

func TestLossSweepComposition(t *testing.T) {
	for _, id := range []string{"figure12", "figure13", "figure14"} {
		exp := tinyExperiment(t, id)
		if len(exp.Configs) != 6 {
			t.Fatalf("%s has %d configs, want 6 (3 loss x 2 staleness)", exp.ID, len(exp.Configs))
		}
		for _, cfg := range exp.Configs {
			if cfg.K != 20 || cfg.Size != TinyScale.Large {
				t.Fatalf("%s config %q has k=%d size=%d, want 20 and the large network", exp.ID, cfg.Name, cfg.K, cfg.Size)
			}
			if cfg.Loss == simnet.LossNone {
				t.Fatalf("%s config %q has no loss", exp.ID, cfg.Name)
			}
		}
	}
	// Figure 12 (Sim J) must have no churn but a full observation phase.
	for _, cfg := range tinyExperiment(t, "figure12").Configs {
		if !cfg.Churn.IsZero() {
			t.Fatal("Sim J must have no churn")
		}
		if cfg.ChurnPhase != TinyScale.ChurnLong {
			t.Fatalf("Sim J observation phase %v, want the long churn window %v", cfg.ChurnPhase, TinyScale.ChurnLong)
		}
	}
}

// TestResolveRunSizeAndChurnWindow pins the two scale-relative rules of
// a run spec: a symbolic size takes the scale's network of that name, and
// any declared churn rate, "0/0" included, opens the scale's long churn
// window unless the run sets its own length.
func TestResolveRunSizeAndChurnWindow(t *testing.T) {
	sp, err := workload.Decode([]byte(`{"version": 1, "id": "t", "runs": [
		{"name": "plain"},
		{"name": "quiet", "size": "large", "churn": "0/0"},
		{"name": "short", "size": "small", "churn": "0/0", "churn_minutes": 10},
		{"name": "count", "size": 30, "churn": "1/1"}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scale{PaperScale, ReducedScale, TinyScale} {
		exp, err := FromSpec(sp, s, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range []struct {
			size  int
			phase time.Duration
		}{
			{s.Small, 0},
			{s.Large, s.ChurnLong},
			{s.Small, 10 * time.Minute},
			{30, s.ChurnLong},
		} {
			if cfg := exp.Configs[i]; cfg.Size != want.size || cfg.ChurnPhase != want.phase {
				t.Errorf("scale %s run %s: size %d, churn window %v; want %d and %v",
					s.Name, cfg.Name, cfg.Size, cfg.ChurnPhase, want.size, want.phase)
			}
		}
	}
}
