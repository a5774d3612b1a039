// Command kadsweep runs the experiments of the catalogue: the paper's
// figures and tables, and the adversarial node-removal experiment. Each
// experiment id maps to one artefact and names one spec file of the
// catalogue under specs/, embedded into the binary: -exp figure3 runs
// exactly what -scenario specs/figure3.json does. The output is the
// paper's tables as text and the figures as ASCII charts plus
// per-configuration measurement tables.
//
// Runs execute on the parallel sweep engine (internal/sweep): the
// experiment's configurations — times the replication count — fan out
// across -jobs workers. Every run is deterministic in its seed and the
// engine reassembles results in input order, so the output is identical
// for any -jobs value; only wall-clock time changes. With -exp all,
// every experiment's runs share ONE worker pool (sweep.RunGroups):
// progress lines carry an experiment prefix and rendering happens per
// experiment after the pooled sweep drains, so cores stay busy through
// each experiment's tail instead of idling at every boundary.
//
// Replication (-reps R) repeats every configuration R times with derived
// seeds, matching the paper's repeated-run methodology. Every rep count
// takes the one render path: tables and charts show the cross-run mean
// per snapshot instant, and a configuration that holds two or more reps
// adds the two-sided 95% Student-t confidence interval — the ci95 and
// reps columns, the dotted band of the ASCII charts — as internal/report
// decides from the results themselves. One rep prints its own values in
// the same formats (14.00, not 14).
//
// An experiment whose runs all carry an attack block (the catalogue's
// attack experiment, or such a -scenario file) is rendered as the
// adversary's progress instead of over time: both degradation charts
// (minimum connectivity and largest-SCC fraction versus nodes removed),
// the attack summary and one snapshot table per run. Every strategy of
// internal/attack attacks the same seeded network, so the curves differ
// only by victim-selection policy:
//
//	random   uniformly chosen victims: the baseline tying back to the
//	         paper's random churn, but on the adversary's schedule
//	degree   highest-degree victims (out+in in the latest snapshot)
//	cutset   victims on a minimum vertex cut of the latest snapshot —
//	         the adversary the paper's Equation 2 reasons about
//	eclipse  victims closest by XOR distance to a target identifier,
//	         erasing a keyspace region
//
// A subset of strategies, a budget or a strike interval is a spec file
// whose runs' attack blocks say so (examples/attack_cutset.json).
//
// Flags (every run takes the default memory-governance policy, which is
// not a flag):
//
//	-exp id       experiment to run (see -list), or 'all'; exclusive
//	              with -scenario
//	-scenario f   scenario spec file (JSON) to run instead of a catalogue
//	              experiment: the versioned workload.Spec format composing
//	              churn, traffic, attack and generative-workload knobs
//	              (see README "scenario specs"); a run's "size" is a node
//	              count or the scale's "small"/"large" network
//	-list         list experiments and exit
//	-scale s      paper, reduced, tiny (default reduced); a spec file
//	              may pin its own scale, which then wins
//	-seed n       base seed (default 1)
//	-reps r       seed replications per configuration (default 1): rep 0
//	              runs the configuration's own seed, reps >= 1 a
//	              splitmix64-derived seed stream
//	-jobs j       concurrent runs; 0 means GOMAXPROCS (default 0). Output
//	              is identical for every value
//	-ci-stop f    adaptive replication: per configuration, stop early
//	              once the 95% CI half-width of the churn-window mean
//	              min connectivity is at most f times its mean; -reps
//	              becomes the rep budget (requires -reps >= 2). The
//	              adaptive reps share the one pool, its dedup and its
//	              checkpoints. Stop indices depend only on seeds and
//	              accumulated statistics, so artefacts stay identical
//	              for any -jobs value.
//	-csv dir      one CSV per run and replication (t_min, n, edges,
//	              min_conn, avg_conn, symmetry, removed, scc_frac), an
//	              _agg.csv per configuration with two or more reps, and
//	              attack_summary.csv for an attack experiment; a pooled
//	              sweep writes each experiment's files under dir/<exp>/
//	-json dir     write <exp>.json per experiment (sweep.JSONFile: per
//	              run the config, every rep's snapshot points and
//	              counters, and the cross-rep aggregates; undefined
//	              statistics encode as null, and wall-clock timings and
//	              the worker count are excluded, so the same sweep yields
//	              identical bytes)
//	-checkpoint d persist every completed run to directory d, one file
//	              per run key (configuration fingerprint and seed), and,
//	              on a later invocation, replay finished runs from disk
//	              instead of re-executing them (sweep resume); a run two
//	              experiments share runs and is stored once
//	-quiet        suppress progress lines
//
// SIGINT or SIGTERM cancels the sweep: canceled runs are not
// checkpointed, completed experiments are still written, and kadsweep
// exits 1; re-running with the same -checkpoint resumes.
//
// Examples:
//
//	kadsweep -list
//	kadsweep -exp table1
//	kadsweep -exp figure2 -scale tiny
//	kadsweep -exp figure2 -scale tiny -reps 3 -jobs 4
//	kadsweep -exp figure6 -scale reduced -reps 5 -csv out/ -json out/
//	kadsweep -exp attack -scale tiny
//	kadsweep -exp all -scale tiny
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"kadre/internal/report"
	"kadre/internal/scenario"
	"kadre/internal/stats"
	"kadre/internal/sweep"
	"kadre/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "kadsweep:", err)
		os.Exit(1)
	}
}

// flags holds the parsed command line.
type flags struct {
	// scale is the resolved -scale; loadScenario replaces it with the
	// scale a spec pins.
	scale                          scenario.Scale
	exp, scenario                  string
	seed                           int64
	reps, jobs                     int
	ciStop                         float64
	list, quiet                    bool
	csvDir, jsonDir, checkpointDir string
}

// parseFlags parses and validates args and resolves -scale. It touches no
// file.
func parseFlags(args []string) (*flags, error) {
	// Flag diagnostics (usage, parse errors) stay on the FlagSet's stderr
	// default; stdout carries only the program's results.
	fs := flag.NewFlagSet("kadsweep", flag.ContinueOnError)
	f := &flags{}
	scale := fs.String("scale", "reduced", "scale: paper, reduced, tiny")
	fs.StringVar(&f.exp, "exp", "", "experiment id (see -list), or 'all'")
	fs.StringVar(&f.scenario, "scenario", "", "scenario spec file (JSON) to run instead of a catalogue experiment")
	fs.Int64Var(&f.seed, "seed", 1, "base seed")
	fs.IntVar(&f.reps, "reps", 1, "seed replications per configuration")
	fs.IntVar(&f.jobs, "jobs", 0, "concurrent runs (0 = GOMAXPROCS)")
	fs.Float64Var(&f.ciStop, "ci-stop", 0, "adaptive replication: stop a config's reps once the 95% CI half-width is at most this fraction of the mean churn-window min connectivity (0 = fixed -reps)")
	fs.BoolVar(&f.list, "list", false, "list experiments and exit")
	fs.StringVar(&f.csvDir, "csv", "", "directory for per-run CSV series")
	fs.StringVar(&f.jsonDir, "json", "", "directory for per-experiment JSON documents")
	fs.StringVar(&f.checkpointDir, "checkpoint", "", "directory for per-run checkpoints (resume support)")
	fs.BoolVar(&f.quiet, "quiet", false, "suppress progress lines")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	switch {
	case f.reps < 1:
		return nil, fmt.Errorf("-reps %d must be >= 1", f.reps)
	case f.jobs < 0:
		return nil, fmt.Errorf("-jobs %d must be >= 0", f.jobs)
	case f.ciStop < 0:
		return nil, fmt.Errorf("-ci-stop %v must be >= 0", f.ciStop)
	case f.ciStop > 0 && f.reps < 2:
		return nil, fmt.Errorf("-ci-stop needs -reps >= 2 (the rep budget a decision may stop short of)")
	}
	var err error
	f.scale, err = scenario.ScaleByName(*scale)
	return f, err
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	f, err := parseFlags(args)
	if err != nil {
		return err
	}
	if f.list {
		exps, err := f.scale.Experiments(f.seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "available experiments (paper artefact -> id):")
		fmt.Fprintln(stdout, "  table1    Table 1 (message-loss scenarios; static)")
		for _, e := range exps {
			fmt.Fprintf(stdout, "  %-9s %s (%d runs)\n", e.ID, e.Title, len(e.Configs))
		}
		return nil
	}

	const table1 = "Table 1: message loss scenarios"
	switch {
	case f.exp != "" && f.scenario != "":
		return fmt.Errorf("-exp and -scenario are mutually exclusive")
	case f.exp == "" && f.scenario == "":
		return fmt.Errorf("-exp or -scenario is required (try -list)")
	case f.scenario != "":
		exp, err := f.loadScenario()
		if err != nil {
			return err
		}
		return sweepExperiments(ctx, stdout, f, exp)
	case f.exp == "table1":
		return report.Table1(stdout, table1)
	case f.exp == "all":
		exps, err := f.scale.Experiments(f.seed)
		if err != nil {
			return err
		}
		if err := report.Table1(stdout, table1); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
		return sweepExperiments(ctx, stdout, f, exps...)
	}
	exp, err := f.scale.ExperimentByID(f.exp, f.seed)
	if err != nil {
		return err
	}
	return sweepExperiments(ctx, stdout, f, exp)
}

// loadScenario resolves the -scenario spec file through FromSpec, the
// path every catalogue experiment takes, so running specs/figure2.json
// produces the artefacts of -exp figure2 byte for byte. A scale the spec
// pins wins, and replaces f.scale so the artefacts are labelled with it.
func (f *flags) loadScenario() (scenario.Experiment, error) {
	sp, err := workload.Load(f.scenario)
	if err != nil {
		return scenario.Experiment{}, err
	}
	exp, err := scenario.FromSpec(sp, f.scale, f.seed)
	if err != nil {
		return scenario.Experiment{}, fmt.Errorf("scenario %s: %w", f.scenario, err)
	}
	if sp.Scale != "" {
		f.scale, _ = scenario.ScaleByName(sp.Scale) // FromSpec accepted the name
	}
	return exp, nil
}

// prepare creates the -csv and -json directories, so an unwritable output
// location fails before the sweep and not after it.
func (f *flags) prepare() error {
	for _, dir := range []string{f.csvDir, f.jsonDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
	}
	return nil
}

// sweepOptions returns the sweep's options: -reps, -jobs, -checkpoint,
// -ci-stop's stop rule and, unless -quiet, a printer of one progress line
// per reported run on w. With groupPrefix the lines name the run's
// experiment too, for sweeps pooling several.
func (f *flags) sweepOptions(w io.Writer, groupPrefix bool) (sweep.Options, error) {
	opts := sweep.Options{Reps: f.reps, Jobs: f.jobs}
	if f.checkpointDir != "" {
		var err error
		if opts.Checkpoint, err = sweep.NewCheckpointer(f.checkpointDir); err != nil {
			return opts, err
		}
	}
	if f.ciStop > 0 {
		opts.Rule = sweep.StopAtPrecision(f.ciStop)
		opts.Extract = func(r *scenario.Result) float64 { return r.ChurnWindowSummary().Mean }
		opts.MinReps = min(3, f.reps) // RepBounds' default, capped by the budget
	}
	if !f.quiet {
		opts.Progress = func(ev sweep.Event) {
			status := fmt.Sprintf("%v", ev.Elapsed.Round(time.Millisecond))
			if ev.Cached {
				status = "checkpoint"
			}
			var fold string
			if f.ciStop > 0 {
				fold = fmt.Sprintf(" churn-mean %.3f ci95 %.4f", ev.Value, ev.CI95) // NaN below two reps
				if ev.Decided {
					status += fmt.Sprintf("; %s after %d reps", ev.Verdict, ev.Reps)
				}
			}
			if ev.Err != nil {
				status = "FAILED: " + ev.Err.Error()
			}
			name := ev.Name
			if groupPrefix {
				name = ev.Experiment + "/" + name
			}
			fmt.Fprintf(w, "  [%d/%d] %s rep %d seed %d%s (%s)\n",
				ev.Done, ev.Total, name, ev.Rep, ev.Seed, fold, status)
		}
	}
	return opts, nil
}

// sweepExperiments executes already-resolved experiments — catalogue
// entries and -scenario files share this path — through ONE shared worker
// pool (sweep.RunGroups): with -exp all, runs from the next experiment
// backfill idle workers while the previous experiment's stragglers
// finish, instead of draining the pool at every experiment boundary.
// Rendering and artefact writing happen per experiment, in input order,
// after all runs complete.
func sweepExperiments(ctx context.Context, stdout io.Writer, f *flags, exps ...scenario.Experiment) error {
	if err := f.prepare(); err != nil {
		return err
	}
	pooled := len(exps) > 1
	opts, err := f.sweepOptions(stdout, pooled)
	if err != nil {
		return err
	}
	groups := make([]sweep.Group, len(exps))
	totalConfigs := 0
	for i, exp := range exps {
		groups[i] = sweep.Group{Name: exp.ID, Configs: exp.Configs}
		totalConfigs += len(exp.Configs)
	}

	repsLabel := fmt.Sprintf("%d reps", f.reps)
	if f.ciStop > 0 {
		repsLabel = fmt.Sprintf("<= %d adaptive reps (ci-stop %g)", f.reps, f.ciStop)
	}
	finished := exps[0].ID
	if pooled {
		finished = fmt.Sprintf("%d experiments", len(exps))
		fmt.Fprintf(stdout, "=== pooled sweep: %d experiments, %d configs x %s (scale %s, jobs %d) ===\n",
			len(exps), totalConfigs, repsLabel, f.scale.Name, f.jobs)
	} else {
		fmt.Fprintf(stdout, "=== %s: %s (scale %s, %d configs x %s, jobs %d) ===\n",
			exps[0].ID, exps[0].Title, f.scale.Name, totalConfigs, repsLabel, f.jobs)
	}
	start := time.Now()

	// On failure or cancellation RunGroups still hands back every
	// experiment whose runs all completed; render and persist those before
	// reporting the error, so a pooled -exp all sweep does not discard
	// hours of finished work.
	allSets, runErr := sweep.RunGroups(ctx, groups, opts)
	if runErr != nil {
		fmt.Fprintf(stdout, "--- %s FAILED after %v; writing completed experiments ---\n\n",
			finished, time.Since(start).Round(time.Second))
	} else {
		fmt.Fprintf(stdout, "--- %s finished in %v ---\n\n", finished, time.Since(start).Round(time.Second))
	}

	for i, exp := range exps {
		sets := allSets[i]
		if sets == nil {
			continue // incomplete: some run failed or was skipped
		}
		if f.csvDir != "" {
			// Experiments of one pool may share run names (table2 reuses
			// figure6-9's, and its Sims F-H run on other seeds), so each
			// writes its own subdirectory.
			dir := f.csvDir
			if pooled {
				dir = filepath.Join(dir, exp.ID)
			}
			if err := writeCSVs(dir, sets); err != nil {
				return err
			}
		}
		if err := f.writeJSON(exp, sets); err != nil {
			return err
		}
		if pooled {
			fmt.Fprintf(stdout, "=== %s: %s ===\n", exp.ID, exp.Title)
		}
		if err := render(stdout, exp, sets); err != nil {
			return err
		}
		if pooled {
			fmt.Fprintln(stdout)
		}
	}
	return runErr
}

// attacked reports whether every run of an experiment carries an attack
// block, which makes it an attack experiment.
func attacked(sets []*sweep.RunSet) bool {
	return !slices.ContainsFunc(sets, func(rs *sweep.RunSet) bool { return !rs.Config.Attack.Enabled() })
}

// render writes one experiment's artefact, whatever the rep count; a
// title's "(±95% CI)" note goes with the ci95 column it announces.
func render(w io.Writer, exp scenario.Experiment, sets []*sweep.RunSet) error {
	switch exp.ID {
	case "table2":
		return report.Table2(w, "Table 2: mean (±95% CI) and relative variance of min connectivity during churn", sets)
	case "figure10":
		return report.MeansByK(w, "Figure 10: means (±95% CI) of the minimum connectivity during churn", sets)
	case "bitlength":
		return report.MeansByK(w, "§5.7: bit-length comparison (expect no significant difference)", sets)
	}
	// Two charts over all configurations, then per-configuration tables:
	// an attack experiment charts against nodes removed and adds the
	// attack summary, any other charts min and avg connectivity over time.
	minConn := func(rs *sweep.RunSet) *stats.AggregateSeries { return rs.Min }
	if attacked(sets) {
		scc := func(rs *sweep.RunSet) *stats.AggregateSeries { return rs.SCC }
		if err := report.DegradationChart(w, exp.Title+" — min connectivity vs removed", sets, minConn); err != nil {
			return err
		}
		fmt.Fprintln(w)
		if err := report.DegradationChart(w, exp.Title+" — largest-SCC fraction", sets, scc); err != nil {
			return err
		}
		fmt.Fprintln(w)
		if err := report.AttackTable(w, "Attack summary", sets); err != nil {
			return err
		}
	} else {
		avgConn := func(rs *sweep.RunSet) *stats.AggregateSeries { return rs.Avg }
		if err := report.Chart(w, exp.Title+" — minimum connectivity", sets, minConn); err != nil {
			return err
		}
		fmt.Fprintln(w)
		if err := report.Chart(w, exp.Title+" — average connectivity", sets, avgConn); err != nil {
			return err
		}
	}
	for _, rs := range sets {
		fmt.Fprintln(w)
		if err := report.SnapshotTable(w, rs); err != nil {
			return err
		}
	}
	return nil
}

// writeJSON writes the experiment's document to <exp>.json in the -json
// directory, if one was given.
func (f *flags) writeJSON(exp scenario.Experiment, sets []*sweep.RunSet) error {
	if f.jsonDir == "" {
		return nil
	}
	out, err := os.Create(filepath.Join(f.jsonDir, exp.ID+".json"))
	if err != nil {
		return err
	}
	meta := sweep.JSONMeta{Experiment: exp.ID, Title: exp.Title, Scale: f.scale.Name}
	if err := sweep.WriteJSON(out, meta, sets); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// csvPath names the CSV file of one replication of a run in dir: the run
// name flattened ("SimA/k=5" -> "SimA_k5"), rep 0 under the plain name,
// later reps with an _r<rep> suffix, then suffix (".csv", "_agg.csv").
func csvPath(dir, run string, rep int, suffix string) string {
	name := strings.NewReplacer("/", "_", "=", "").Replace(run)
	if rep > 0 {
		name = fmt.Sprintf("%s_r%d", name, rep)
	}
	return filepath.Join(dir, name+suffix)
}

// writeCSVs writes one CSV per replication of every run into dir, plus a
// per-config aggregate CSV when there are multiple reps and, for an attack
// experiment, the cross-strategy summary.
func writeCSVs(dir string, sets []*sweep.RunSet) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, rs := range sets {
		for rep, r := range rs.Reps {
			var buf bytes.Buffer
			buf.WriteString("t_min,n,edges,min_conn,avg_conn,symmetry,removed,scc_frac\n")
			for _, p := range r.Points {
				fmt.Fprintf(&buf, "%.0f,%d,%d,%d,%.3f,%.4f,%d,%.4f\n",
					p.Time.Minutes(), p.N, p.Edges, p.Min, p.Avg, p.Symmetry, p.Removed, p.SCC)
			}
			if err := os.WriteFile(csvPath(dir, rs.Config.Name, rep, ".csv"), buf.Bytes(), 0o666); err != nil {
				return err
			}
		}
		if len(rs.Reps) < 2 {
			continue
		}
		var buf bytes.Buffer
		buf.WriteString("t_min,reps,n_mean,min_mean,min_std,min_ci95,avg_mean,avg_std,avg_ci95\n")
		for i := range rs.Min.Points {
			mp, ap, sp := rs.Min.Points[i], rs.Avg.Points[i], rs.Size.Points[i]
			fmt.Fprintf(&buf, "%.0f,%d,%.2f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f\n",
				mp.T.Minutes(), mp.N, sp.Mean, mp.Mean, mp.Std, mp.CI95, ap.Mean, ap.Std, ap.CI95)
		}
		if err := os.WriteFile(csvPath(dir, rs.Config.Name, 0, "_agg.csv"), buf.Bytes(), 0o666); err != nil {
			return err
		}
	}
	if !attacked(sets) {
		return nil
	}
	var buf bytes.Buffer
	buf.WriteString("strategy,reps,removed_mean,churn_window_min_mean,final_min_mean,final_scc_mean\n")
	for _, rs := range sets {
		var removed, finalMin, finalSCC, winMean float64
		for _, r := range rs.Reps {
			removed += float64(r.AttackRemoved)
			winMean += r.ChurnWindowSummary().Mean
			if len(r.Points) > 0 {
				finalMin += float64(r.Points[len(r.Points)-1].Min)
				finalSCC += r.Points[len(r.Points)-1].SCC
			}
		}
		n := float64(len(rs.Reps))
		fmt.Fprintf(&buf, "%s,%d,%.1f,%.3f,%.2f,%.4f\n",
			rs.Config.Attack.Strategy, len(rs.Reps), removed/n, winMean/n, finalMin/n, finalSCC/n)
	}
	return os.WriteFile(filepath.Join(dir, "attack_summary.csv"), buf.Bytes(), 0o666)
}
