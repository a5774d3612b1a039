package scenario

import (
	"fmt"
	"slices"
	"time"

	"kadre/internal/workload"
	"kadre/specs"
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

// Experiment is a named, runnable reproduction of one paper artefact.
type Experiment struct {
	// ID is the artefact tag, e.g. "figure2" or "table2".
	ID string
	// Title describes the artefact.
	Title string
	// Configs are the runs whose results regenerate the artefact.
	Configs []Config
}

// catalogue is the experiment catalogue: the ids of the spec files
// embedded from specs/, in the order -list prints them and -exp all
// runs them. figure2-9 are the paper's k sweeps, Simulations A-H;
// table2 summarises E-H, sharing figure6's four Sim E runs (seed
// offsets 0-3, which a pooled sweep executes once) and running F-H on
// seed offsets 100-303 of their own; figure10 adds alpha 5 under
// churn; bitlength is §5.7's b = 80 vs 160 on C and D; figure11-14
// are Simulations I-L (staleness and message loss at k = 20); attack
// compares the adversary's strategies.
var catalogue = []string{
	"figure2", "figure3", "figure4", "figure5",
	"figure6", "figure7", "figure8", "figure9",
	"table2", "figure10", "bitlength",
	"figure11", "figure12", "figure13", "figure14",
	"attack",
}

// Experiments resolves the whole catalogue at this scale.
func (s Scale) Experiments(seed int64) ([]Experiment, error) {
	exps := make([]Experiment, len(catalogue))
	for i, id := range catalogue {
		var err error
		if exps[i], err = s.ExperimentByID(id, seed); err != nil {
			return nil, err
		}
	}
	return exps, nil
}

// ExperimentByID resolves one catalogue experiment by artefact tag: its
// embedded spec file, through FromSpec.
func (s Scale) ExperimentByID(experimentID string, seed int64) (Experiment, error) {
	if !slices.Contains(catalogue, experimentID) {
		return Experiment{}, fmt.Errorf("scenario: unknown experiment %q", experimentID)
	}
	data, err := specs.FS.ReadFile(experimentID + ".json")
	if err != nil {
		return Experiment{}, err
	}
	sp, err := workload.Decode(data)
	if err != nil {
		return Experiment{}, fmt.Errorf("scenario: catalogue %s: %w", experimentID, err)
	}
	return FromSpec(sp, s, seed)
}
