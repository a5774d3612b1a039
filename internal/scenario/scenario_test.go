package scenario

import (
	"math"
	"strings"
	"testing"
	"time"

	"kadre/internal/attack"
	"kadre/internal/churn"
	"kadre/internal/par"
	"kadre/internal/simnet"
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
	out, err := par.Map(jobs, cfgs, func(_ int, cfg Config) (*Result, error) { return Run(cfg) })
	if err != nil {
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
	cfg.Churn = churn.Rate1_1
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
	cfg.Churn = churn.Rate0_1
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
		{"churn without phase", func(c *Config) { c.Churn = churn.Rate1_1; c.ChurnPhase = 0 }, "zero churn phase"},
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
		exps := s.Experiments(1)
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

func TestExperimentByID(t *testing.T) {
	if _, err := TinyScale.ExperimentByID("figure2", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := TinyScale.ExperimentByID("figure99", 1); err == nil {
		t.Fatal("unknown id should fail")
	}
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

func TestKSweepMatchesPaper(t *testing.T) {
	want := []int{5, 10, 20, 30}
	for i, k := range KSweep {
		if k != want[i] {
			t.Fatalf("KSweep = %v, want %v", KSweep, want)
		}
	}
	// Figure experiments must sweep exactly these k values.
	exp := TinyScale.Figure2(1)
	if len(exp.Configs) != 4 {
		t.Fatalf("figure2 has %d configs", len(exp.Configs))
	}
	for i, cfg := range exp.Configs {
		if cfg.K != want[i] {
			t.Fatalf("figure2 config %d has k=%d", i, cfg.K)
		}
	}
}

func TestFigure10Composition(t *testing.T) {
	exp := TinyScale.Figure10(1)
	// 2 sizes x 3 curves x 4 k values.
	if len(exp.Configs) != 24 {
		t.Fatalf("figure10 has %d configs, want 24", len(exp.Configs))
	}
	alpha5 := 0
	for _, cfg := range exp.Configs {
		if cfg.Alpha == 5 {
			alpha5++
			if cfg.Churn != churn.Rate10_10 {
				t.Fatal("alpha=5 runs must use churn 10/10")
			}
		}
	}
	if alpha5 != 8 {
		t.Fatalf("%d alpha=5 configs, want 8", alpha5)
	}
}

func TestSection57Composition(t *testing.T) {
	exp := TinyScale.Section57(1)
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
	for _, exp := range []Experiment{TinyScale.Figure12(1), TinyScale.Figure13(1), TinyScale.Figure14(1)} {
		if len(exp.Configs) != 6 {
			t.Fatalf("%s has %d configs, want 6 (3 loss x 2 staleness)", exp.ID, len(exp.Configs))
		}
		for _, cfg := range exp.Configs {
			if cfg.K != 20 {
				t.Fatalf("%s config %q has k=%d, want 20", exp.ID, cfg.Name, cfg.K)
			}
			if cfg.Loss == simnet.LossNone {
				t.Fatalf("%s config %q has no loss", exp.ID, cfg.Name)
			}
		}
	}
	// Figure 12 (Sim J) must have no churn but a full observation phase.
	for _, cfg := range TinyScale.Figure12(1).Configs {
		if !cfg.Churn.IsZero() {
			t.Fatal("Sim J must have no churn")
		}
		if cfg.ChurnPhase == 0 {
			t.Fatal("Sim J still needs the long observation phase")
		}
	}
}
