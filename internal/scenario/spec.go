package scenario

import (
	"fmt"
	"time"

	"kadre/internal/attack"
	"kadre/internal/simnet"
	"kadre/internal/workload"
)

// FromSpec resolves a scenario spec into a runnable experiment; every
// catalogue experiment (ExperimentByID) and every -scenario file takes
// this path. Unset run fields take the scale's values (the spec's own
// scale pins one; otherwise the caller's applies), a "small" or "large"
// size the scale's network of that name, seeds are baseSeed plus each
// run's explicit offset, and an attack block completes through the one
// adversary rule (budget half the network, spread over the strikes that
// fit the window, snapshots on the strike cadence).
func FromSpec(sp *workload.Spec, scale Scale, baseSeed int64) (Experiment, error) {
	if sp.Scale != "" {
		var err error
		scale, err = ScaleByName(sp.Scale)
		if err != nil {
			return Experiment{}, err
		}
	}
	exp := Experiment{ID: sp.ID, Title: sp.Title}
	for i := range sp.Runs {
		run := workload.Merge(sp.Defaults, sp.Runs[i])
		cfg, err := ResolveRun(run, scale, baseSeed)
		if err != nil {
			return Experiment{}, fmt.Errorf("scenario: spec %q run %q: %w", sp.ID, run.Name, err)
		}
		if err := cfg.WithDefaults().Validate(); err != nil {
			return Experiment{}, fmt.Errorf("scenario: spec %q run %q: %w", sp.ID, run.Name, err)
		}
		exp.Configs = append(exp.Configs, cfg)
	}
	return exp, nil
}

// ResolveRun maps one merged run spec onto a Config. It is the only
// place a declarative run is defaulted: FromSpec loops over it, and
// kadserve's flat scenario/attack block is translated into a RunSpec and
// resolved here too. It checks nothing beyond what it parses — callers
// validate the spec's shape first (workload.Spec.Check) and the resolved
// config after.
func ResolveRun(run workload.RunSpec, scale Scale, baseSeed int64) (Config, error) {
	seed := baseSeed
	if run.SeedOffset != nil {
		seed += *run.SeedOffset
	}
	size := scale.Small // unset or "small"
	if run.Size != nil {
		switch run.Size.Name {
		case "":
			size = run.Size.Nodes
		case "large":
			size = scale.Large
		}
	}
	cfg := Config{
		Name: run.Name, Seed: seed, Size: size,
		Setup: scale.Setup, Stabilize: scale.Stabilize,
		SnapshotInterval: scale.SnapshotInterval, SampleFraction: scale.SampleFraction,
	}

	if run.K != nil {
		cfg.K = *run.K
	}
	if run.Alpha != nil {
		cfg.Alpha = *run.Alpha
	}
	if run.Bits != nil {
		cfg.Bits = *run.Bits
	}
	if run.Staleness != nil {
		cfg.Staleness = *run.Staleness
	}
	if run.Loss != nil {
		loss, err := simnet.ParseLossLevel(*run.Loss)
		if err != nil {
			return Config{}, err
		}
		cfg.Loss = loss
	}
	if run.Churn != nil {
		rate, err := workload.ParseChurnRate(*run.Churn)
		if err != nil {
			return Config{}, err
		}
		cfg.Churn = rate
	}

	if run.Traffic != nil {
		cfg.Traffic = *run.Traffic
	}
	// Pointer semantics map onto the workload sentinel: unset leaves the
	// paper default, explicit 0 disables the rate.
	if run.LookupsPerMinute != nil {
		cfg.Workload.LookupsPerMinute = rateOrDisabled(*run.LookupsPerMinute)
	}
	if run.StoresPerMinute != nil {
		cfg.Workload.StoresPerMinute = rateOrDisabled(*run.StoresPerMinute)
	}
	if run.KeyPool != nil {
		cfg.Workload.KeyPoolSize = *run.KeyPool
	}

	if run.SetupMinutes != nil {
		cfg.Setup = workload.Minutes(*run.SetupMinutes)
	}
	if run.StabilizeMinutes != nil {
		cfg.Stabilize = workload.Minutes(*run.StabilizeMinutes)
	}
	if run.SnapshotMinutes != nil {
		cfg.SnapshotInterval = workload.Minutes(*run.SnapshotMinutes)
	}
	if run.SampleFraction != nil {
		cfg.SampleFraction = *run.SampleFraction
	}

	cfg.Gen = run.Generators()

	// The churn window: explicit length, the Sim A-D drain rule, or —
	// whenever a churn rate is declared (even "0/0", Sim J's quiet
	// observation phase), an adversary, or generative arrivals need one —
	// the scale's long phase.
	switch {
	case run.ChurnMinutes != nil:
		cfg.ChurnPhase = workload.Minutes(*run.ChurnMinutes)
	case run.DrainChurn != nil && *run.DrainChurn:
		// Sims A-D: one removal per minute until roughly 10 nodes remain,
		// running the network down to a handful of nodes like the paper.
		cfg.ChurnPhase = time.Duration(max(size-10, 10)) * time.Minute
	case run.Churn != nil || run.Attack != nil || cfg.Gen.Arrivals != nil:
		cfg.ChurnPhase = scale.ChurnLong
	}

	if run.Attack != nil {
		strategy, err := attack.ParseStrategy(run.Attack.Strategy)
		if err != nil {
			return Config{}, err
		}
		a := attack.Config{Strategy: strategy, Interval: workload.Minutes(run.Attack.IntervalMinutes)}
		if run.Attack.Budget != nil {
			a.Budget = *run.Attack.Budget
		}
		if run.Attack.Kills != nil {
			a.Kills = *run.Attack.Kills
		}
		cfg.Attack = scale.adversary(a, size, cfg.ChurnPhase)
		// The adversary is measured between strikes: unless the run pins a
		// cadence, snapshots land on the strike interval.
		if run.SnapshotMinutes == nil {
			cfg.SnapshotInterval = cfg.Attack.Interval
		}
	}

	return cfg, nil
}

// rateOrDisabled maps a spec's explicit rate onto the traffic sentinel
// convention (explicit 0 means off, not "take the default").
func rateOrDisabled(rate int) int {
	if rate == 0 {
		return workload.Disabled
	}
	return rate
}
