package scenario

import (
	"fmt"
	"time"

	"kadre/internal/attack"
	"kadre/internal/churn"
	"kadre/internal/simnet"
)

// Scale maps the paper's experiment dimensions onto a compute budget. The
// paper ran 250/2500-node networks for up to 1400 simulated minutes and
// fanned max-flow computations out to a 24-node cluster; Paper reproduces
// that literally, while Reduced and Tiny shrink network sizes and churn-
// phase lengths so full figure sweeps finish on one laptop core. Churn
// rates, traffic rates, phase boundaries, and all Kademlia parameters are
// never scaled — only sizes and durations.
type Scale struct {
	Name             string
	Small            int           // small-network size (paper: 250)
	Large            int           // large-network size (paper: 2500)
	Setup            time.Duration // setup phase (paper: 30 min)
	Stabilize        time.Duration // stabilization phase (paper: 90 min)
	ChurnLong        time.Duration // churn phase of Sims E-L (paper: 1280 min)
	SnapshotInterval time.Duration
	SampleFraction   float64 // connectivity sampling c (paper: 0.02)
}

// The three built-in scales.
var (
	PaperScale = Scale{
		Name: "paper", Small: 250, Large: 2500,
		Setup: 30 * time.Minute, Stabilize: 90 * time.Minute,
		ChurnLong:        1280 * time.Minute,
		SnapshotInterval: 20 * time.Minute,
		SampleFraction:   0.02,
	}
	ReducedScale = Scale{
		Name: "reduced", Small: 100, Large: 250,
		Setup: 30 * time.Minute, Stabilize: 90 * time.Minute,
		ChurnLong:        240 * time.Minute,
		SnapshotInterval: 30 * time.Minute,
		SampleFraction:   0.04,
	}
	TinyScale = Scale{
		Name: "tiny", Small: 40, Large: 80,
		Setup: 10 * time.Minute, Stabilize: 30 * time.Minute,
		ChurnLong:        40 * time.Minute,
		SnapshotInterval: 20 * time.Minute,
		SampleFraction:   0.10,
	}
)

// ScaleByName resolves a scale name.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "paper":
		return PaperScale, nil
	case "reduced", "":
		return ReducedScale, nil
	case "tiny":
		return TinyScale, nil
	default:
		return Scale{}, fmt.Errorf("scenario: unknown scale %q (paper, reduced, tiny)", name)
	}
}

// drainChurn is the churn-phase length for the 0/1 simulations A-D: one
// removal per minute until roughly 10 nodes remain, matching the paper's
// figures that run the network down to a handful of nodes.
func (s Scale) drainChurn(size int) time.Duration {
	mins := size - 10
	if mins < 10 {
		mins = 10
	}
	return time.Duration(mins) * time.Minute
}

// KSweep is the bucket-size dimension of Figures 2-10.
var KSweep = []int{5, 10, 20, 30}

// Experiment is a named, runnable reproduction of one paper artefact.
type Experiment struct {
	// ID is the artefact tag, e.g. "figure2" or "table2".
	ID string
	// Title describes the artefact.
	Title string
	// Configs are the runs whose results regenerate the artefact.
	Configs []Config
}

func (s Scale) base(name string, seed int64, size int) Config {
	return Config{
		Name:             name,
		Seed:             seed,
		Size:             size,
		Setup:            s.Setup,
		Stabilize:        s.Stabilize,
		SnapshotInterval: s.SnapshotInterval,
		SampleFraction:   s.SampleFraction,
	}
}

// simAD builds one Simulation A-D style config (churn 0/1, drain to ~10
// nodes, staleness 1 per §5.3's rule for churn sims without loss).
func (s Scale) simAD(sim string, seed int64, size, k int, withTraffic bool) Config {
	cfg := s.base(fmt.Sprintf("Sim%s/k=%d", sim, k), seed, size)
	cfg.K = k
	cfg.Staleness = 1
	cfg.Churn = churn.Rate0_1
	cfg.ChurnPhase = s.drainChurn(size)
	cfg.Traffic = withTraffic
	return cfg
}

// simEH builds one Simulation E-H style config (symmetric churn with
// traffic, staleness 1).
func (s Scale) simEH(sim string, seed int64, size, k int, rate churn.Rate, alpha int) Config {
	cfg := s.base(fmt.Sprintf("Sim%s/k=%d", sim, k), seed, size)
	cfg.K = k
	cfg.Alpha = alpha
	cfg.Staleness = 1
	cfg.Churn = rate
	cfg.ChurnPhase = s.ChurnLong
	cfg.Traffic = true
	return cfg
}

// simIL builds one Simulation I-L style config (k=20, traffic, message
// loss and staleness sweeps).
func (s Scale) simIL(name string, seed int64, rate churn.Rate, loss simnet.LossLevel, staleness int) Config {
	cfg := s.base(name, seed, s.Large)
	cfg.K = 20
	cfg.Staleness = staleness
	cfg.Loss = loss
	cfg.Churn = rate
	cfg.ChurnPhase = s.ChurnLong
	cfg.Traffic = true
	return cfg
}

// Figure2 is Simulation A: size small, churn 0/1, no data traffic.
func (s Scale) Figure2(seed int64) Experiment {
	return s.kSweepExperiment("figure2", "Sim A: size small, churn 0/1, no data traffic", seed, s.Small, false, "A")
}

// Figure3 is Simulation B: size large, churn 0/1, no data traffic.
func (s Scale) Figure3(seed int64) Experiment {
	return s.kSweepExperiment("figure3", "Sim B: size large, churn 0/1, no data traffic", seed, s.Large, false, "B")
}

// Figure4 is Simulation C: size small, churn 0/1, with data traffic.
func (s Scale) Figure4(seed int64) Experiment {
	return s.kSweepExperiment("figure4", "Sim C: size small, churn 0/1, with data traffic", seed, s.Small, true, "C")
}

// Figure5 is Simulation D: size large, churn 0/1, with data traffic.
func (s Scale) Figure5(seed int64) Experiment {
	return s.kSweepExperiment("figure5", "Sim D: size large, churn 0/1, with data traffic", seed, s.Large, true, "D")
}

func (s Scale) kSweepExperiment(experimentID, title string, seed int64, size int, withTraffic bool, sim string) Experiment {
	exp := Experiment{ID: experimentID, Title: title}
	for i, k := range KSweep {
		exp.Configs = append(exp.Configs, s.simAD(sim, seed+int64(i), size, k, withTraffic))
	}
	return exp
}

// Figure6 is Simulation E: size small, churn 1/1, with data traffic.
func (s Scale) Figure6(seed int64) Experiment {
	exp := Experiment{ID: "figure6", Title: "Sim E: size small, churn 1/1, with data traffic"}
	for i, k := range KSweep {
		exp.Configs = append(exp.Configs, s.simEH("E", seed+int64(i), s.Small, k, churn.Rate1_1, 0))
	}
	return exp
}

// Figure7 is Simulation F: size large, churn 1/1, with data traffic.
func (s Scale) Figure7(seed int64) Experiment {
	exp := Experiment{ID: "figure7", Title: "Sim F: size large, churn 1/1, with data traffic"}
	for i, k := range KSweep {
		exp.Configs = append(exp.Configs, s.simEH("F", seed+int64(i), s.Large, k, churn.Rate1_1, 0))
	}
	return exp
}

// Figure8 is Simulation G: size small, churn 10/10, with data traffic.
func (s Scale) Figure8(seed int64) Experiment {
	exp := Experiment{ID: "figure8", Title: "Sim G: size small, churn 10/10, with data traffic"}
	for i, k := range KSweep {
		exp.Configs = append(exp.Configs, s.simEH("G", seed+int64(i), s.Small, k, churn.Rate10_10, 0))
	}
	return exp
}

// Figure9 is Simulation H: size large, churn 10/10, with data traffic.
func (s Scale) Figure9(seed int64) Experiment {
	exp := Experiment{ID: "figure9", Title: "Sim H: size large, churn 10/10, with data traffic"}
	for i, k := range KSweep {
		exp.Configs = append(exp.Configs, s.simEH("H", seed+int64(i), s.Large, k, churn.Rate10_10, 0))
	}
	return exp
}

// Table2 reuses the Simulation E-H runs; mean and relative variance of the
// min-connectivity during churn come from Result.ChurnWindowSummary.
func (s Scale) Table2(seed int64) Experiment {
	exp := Experiment{ID: "table2", Title: "Sims E-H: mean and relative variance of min connectivity during churn"}
	exp.Configs = append(exp.Configs, s.Figure6(seed).Configs...)
	exp.Configs = append(exp.Configs, s.Figure8(seed+100).Configs...)
	exp.Configs = append(exp.Configs, s.Figure7(seed+200).Configs...)
	exp.Configs = append(exp.Configs, s.Figure9(seed+300).Configs...)
	return exp
}

// Figure10 sweeps k for three churn/alpha combinations on both network
// sizes: churn 1/1 alpha 3, churn 10/10 alpha 3, churn 10/10 alpha 5.
func (s Scale) Figure10(seed int64) Experiment {
	exp := Experiment{ID: "figure10", Title: "mean min connectivity during churn vs k, alpha in {3,5}"}
	curves := []struct {
		rate  churn.Rate
		alpha int
		tag   string
	}{
		{churn.Rate1_1, 3, "churn1/1-a3"},
		{churn.Rate10_10, 3, "churn10/10-a3"},
		{churn.Rate10_10, 5, "churn10/10-a5"},
	}
	i := int64(0)
	for _, size := range []int{s.Small, s.Large} {
		sizeTag := "small"
		if size == s.Large {
			sizeTag = "large"
		}
		for _, c := range curves {
			for _, k := range KSweep {
				cfg := s.simEH("F10", seed+i, size, k, c.rate, c.alpha)
				cfg.Name = fmt.Sprintf("F10/%s/%s/k=%d", sizeTag, c.tag, k)
				exp.Configs = append(exp.Configs, cfg)
				i++
			}
		}
	}
	return exp
}

// Section57 repeats Simulations C and D with bit-length 80 alongside 160;
// the paper reports no significant difference.
func (s Scale) Section57(seed int64) Experiment {
	exp := Experiment{ID: "bitlength", Title: "§5.7: bit-length 80 vs 160 on Sims C and D"}
	i := int64(0)
	for _, size := range []int{s.Small, s.Large} {
		sizeTag := "small"
		if size == s.Large {
			sizeTag = "large"
		}
		for _, bits := range []int{160, 80} {
			cfg := s.simAD("S57", seed+i, size, 20, true)
			cfg.Bits = bits
			cfg.Name = fmt.Sprintf("S57/%s/b=%d", sizeTag, bits)
			exp.Configs = append(exp.Configs, cfg)
			i++
		}
	}
	return exp
}

// Figure11 is Simulation I: staleness limits 1 and 5 without message loss,
// churn 1/1 (a) and 10/10 (b), size large, k=20.
func (s Scale) Figure11(seed int64) Experiment {
	exp := Experiment{ID: "figure11", Title: "Sim I: staleness s in {1,5}, no loss, churn 1/1 and 10/10"}
	i := int64(0)
	for _, rate := range []churn.Rate{churn.Rate1_1, churn.Rate10_10} {
		for _, staleness := range []int{1, 5} {
			cfg := s.simIL(fmt.Sprintf("SimI/churn%s/s=%d", rate, staleness), seed+i, rate, simnet.LossNone, staleness)
			exp.Configs = append(exp.Configs, cfg)
			i++
		}
	}
	return exp
}

// lossSweep builds one Simulation J/K/L experiment.
func (s Scale) lossSweep(experimentID, sim string, seed int64, rate churn.Rate) Experiment {
	exp := Experiment{ID: experimentID, Title: fmt.Sprintf("Sim %s: loss sweep, churn %s, s in {1,5}", sim, rate)}
	i := int64(0)
	for _, staleness := range []int{1, 5} {
		for _, loss := range []simnet.LossLevel{simnet.LossLow, simnet.LossMedium, simnet.LossHigh} {
			cfg := s.simIL(fmt.Sprintf("Sim%s/s=%d/l=%s", sim, staleness, loss), seed+i, rate, loss, staleness)
			exp.Configs = append(exp.Configs, cfg)
			i++
		}
	}
	return exp
}

// Figure12 is Simulation J: message loss sweep without churn.
func (s Scale) Figure12(seed int64) Experiment {
	return s.lossSweep("figure12", "J", seed, churn.Rate{})
}

// Figure13 is Simulation K: message loss sweep with churn 1/1.
func (s Scale) Figure13(seed int64) Experiment {
	return s.lossSweep("figure13", "K", seed, churn.Rate1_1)
}

// Figure14 is Simulation L: message loss sweep with churn 10/10.
func (s Scale) Figure14(seed int64) Experiment {
	return s.lossSweep("figure14", "L", seed, churn.Rate10_10)
}

// Experiments returns every runnable experiment at this scale, keyed by ID.
func (s Scale) Experiments(seed int64) []Experiment {
	return []Experiment{
		s.Figure2(seed), s.Figure3(seed), s.Figure4(seed), s.Figure5(seed),
		s.Figure6(seed), s.Figure7(seed), s.Figure8(seed), s.Figure9(seed),
		s.Table2(seed), s.Figure10(seed), s.Section57(seed),
		s.Figure11(seed), s.Figure12(seed), s.Figure13(seed), s.Figure14(seed),
		s.AttackExperiment(seed, attack.Strategies(), 0, 0),
	}
}

// ExperimentByID resolves one experiment by artefact tag.
func (s Scale) ExperimentByID(experimentID string, seed int64) (Experiment, error) {
	for _, e := range s.Experiments(seed) {
		if e.ID == experimentID {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("scenario: unknown experiment %q", experimentID)
}
