// Package batch is the one flag-to-artefact path of the batch commands
// (kadsweep, kadattack): it registers and validates the flags they share,
// resolves them into a scale and a checkpointer, loads a -scenario spec
// into an experiment, builds the sweep options with the progress printer,
// and names and writes the artefacts. The memory-governance policy is not
// a flag: every run takes connectivity.DefaultGovernance(). What a
// command adds — its own flags, its experiment source, its banner and
// renderers — stays in its main and reaches this package as arguments.
//
// Shared flags:
//
//	-scale s      paper, reduced, tiny (default reduced); a spec file
//	              may pin its own scale, which then wins
//	-scenario f   scenario spec file (JSON) to run instead of the
//	              command's catalogue experiments: the versioned
//	              workload.Spec format composing churn, traffic, attack
//	              and generative-workload knobs (see README "scenario
//	              specs"). The catalogue is itself the spec files under
//	              specs/, embedded into the binaries; a run's "size" is a
//	              node count or the scale's "small"/"large" network
//	-seed n       base seed (default 1)
//	-reps r       seed replications per configuration (default 1): rep 0
//	              runs the configuration's own seed, reps >= 1 a
//	              splitmix64-derived seed stream
//	-jobs j       concurrent runs; 0 means GOMAXPROCS (default 0). Output
//	              is identical for every value
//	-csv dir      write one CSV per run and replication
//	-json dir     write one JSON document per experiment (sweep.JSONFile:
//	              per run the config, every rep's snapshot points and
//	              counters, and the cross-rep aggregates; undefined
//	              statistics encode as null and wall-clock timings are
//	              excluded, so the same sweep yields identical bytes)
//	-checkpoint d persist every completed run to directory d and, on a
//	              later invocation, replay finished runs from disk
//	              instead of re-executing them (sweep resume)
//	-quiet        suppress progress lines
package batch

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"kadre/internal/scenario"
	"kadre/internal/sweep"
	"kadre/internal/workload"
)

// Flags holds the shared flag values. The exported fields are valid
// after Parse.
type Flags struct {
	// Scale is the resolved -scale; LoadScenario replaces it with the
	// scale a spec pins.
	Scale         scenario.Scale
	Scenario      string
	Seed          int64
	Reps, Jobs    int
	CSVDir        string
	JSONDir       string
	CheckpointDir string
	Quiet         bool

	fs        *flag.FlagSet
	scaleName string
}

// Register declares the shared flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{fs: fs}
	fs.StringVar(&f.scaleName, "scale", "reduced", "scale: paper, reduced, tiny")
	fs.StringVar(&f.Scenario, "scenario", "", "scenario spec file (JSON) to run instead of the catalogue experiments")
	fs.Int64Var(&f.Seed, "seed", 1, "base seed")
	fs.IntVar(&f.Reps, "reps", 1, "seed replications per configuration")
	fs.IntVar(&f.Jobs, "jobs", 0, "concurrent runs (0 = GOMAXPROCS)")
	fs.StringVar(&f.CSVDir, "csv", "", "directory for per-run CSV series")
	fs.StringVar(&f.JSONDir, "json", "", "directory for per-experiment JSON documents")
	fs.StringVar(&f.CheckpointDir, "checkpoint", "", "directory for per-run checkpoints (resume support)")
	fs.BoolVar(&f.Quiet, "quiet", false, "suppress progress lines")
	return f
}

// Parse parses args on the registered flag set (the command's own flags
// included), validates the shared values and resolves -scale. It touches
// no file.
func (f *Flags) Parse(args []string) error {
	if err := f.fs.Parse(args); err != nil {
		return err
	}
	if f.Reps < 1 {
		return fmt.Errorf("-reps %d must be >= 1", f.Reps)
	}
	if f.Jobs < 0 {
		return fmt.Errorf("-jobs %d must be >= 0", f.Jobs)
	}
	var err error
	f.Scale, err = scenario.ScaleByName(f.scaleName)
	return err
}

// Given returns those of the named flags that were set on the command
// line, whatever value they were given.
func (f *Flags) Given(names ...string) []string {
	var given []string
	f.fs.Visit(func(fl *flag.Flag) {
		for _, n := range names {
			if fl.Name == n {
				given = append(given, "-"+n)
			}
		}
	})
	return given
}

// LoadScenario resolves the -scenario spec file through FromSpec, the
// path every catalogue experiment takes, so running specs/figure2.json
// produces the artefacts of -exp figure2 byte for byte. A scale the spec
// pins wins, and replaces f.Scale so the artefacts are labelled with it.
func (f *Flags) LoadScenario() (scenario.Experiment, error) {
	sp, err := workload.Load(f.Scenario)
	if err != nil {
		return scenario.Experiment{}, err
	}
	exp, err := scenario.FromSpec(sp, f.Scale, f.Seed)
	if err != nil {
		return scenario.Experiment{}, fmt.Errorf("scenario %s: %w", f.Scenario, err)
	}
	if sp.Scale != "" {
		f.Scale, _ = scenario.ScaleByName(sp.Scale) // FromSpec accepted the name
	}
	return exp, nil
}

// Prepare creates the -csv and -json directories, so an unwritable output
// location fails before the sweep and not after it.
func (f *Flags) Prepare() error {
	for _, dir := range []string{f.CSVDir, f.JSONDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
	}
	return nil
}

// SweepOptions returns the options of a fixed-replication sweep: -reps,
// -jobs, the -checkpoint store and, unless -quiet, a printer of one
// progress line per completed run on w. With groupPrefix the lines name
// the run's experiment too, for sweeps pooling several.
func (f *Flags) SweepOptions(w io.Writer, groupPrefix bool) (sweep.Options, error) {
	opts := sweep.Options{Reps: f.Reps, Jobs: f.Jobs}
	if f.CheckpointDir != "" {
		var err error
		if opts.Checkpoint, err = sweep.NewCheckpointer(f.CheckpointDir); err != nil {
			return opts, err
		}
	}
	if !f.Quiet {
		opts.Progress = func(ev sweep.Event) {
			status := fmt.Sprintf("%v", ev.Elapsed.Round(time.Millisecond))
			if ev.Cached {
				status = "checkpoint"
			}
			if ev.Err != nil {
				status = "FAILED: " + ev.Err.Error()
			}
			name := ev.Name
			if groupPrefix {
				name = ev.Experiment + "/" + name
			}
			fmt.Fprintf(w, "  [%d/%d] %s rep %d seed %d (%s)\n",
				ev.Done, ev.Total, name, ev.Rep, ev.Seed, status)
		}
	}
	return opts, nil
}

// CSVPath names the -csv file of one replication of a run: the run name
// flattened ("SimA/k=5" -> "SimA_k5"), rep 0 under the plain name, later
// reps with an _r<rep> suffix, then suffix (".csv", "_agg.csv").
func (f *Flags) CSVPath(run string, rep int, suffix string) string {
	name := strings.NewReplacer("/", "_", "=", "").Replace(run)
	if rep > 0 {
		name = fmt.Sprintf("%s_r%d", name, rep)
	}
	return filepath.Join(f.CSVDir, name+suffix)
}

// WriteJSON writes the experiment document of sets to file in the -json
// directory, if one was given; meta says how the calling command labels
// the document.
func (f *Flags) WriteJSON(file string, meta sweep.JSONMeta, sets []*sweep.RunSet) error {
	if f.JSONDir == "" {
		return nil
	}
	out, err := os.Create(filepath.Join(f.JSONDir, file))
	if err != nil {
		return err
	}
	if err := sweep.WriteJSON(out, meta, sets); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
