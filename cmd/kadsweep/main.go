// Command kadsweep regenerates the paper's figures and tables. Each
// experiment id maps to one artefact of the evaluation section and names
// one spec file of the catalogue under specs/, embedded into the binary:
// -exp figure3 runs exactly what -scenario specs/figure3.json does. The
// output is the paper's tables as text and the figures as ASCII charts
// plus per-configuration measurement tables.
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
// Flags (the shared batch flags -scale -scenario -seed -reps -jobs -csv
// -json -checkpoint -quiet, and the JSON document, are documented once,
// in internal/batch, and every run takes the default memory-governance
// policy, which is not a flag; -csv also writes a per-config aggregate CSV
// for every configuration with two or more reps, and -json writes
// <exp>.json with the informational "jobs" field):
//
//	-exp id       experiment to run (see -list), or 'all'; exclusive
//	              with -scenario
//	-ci-stop f    adaptive replication: per configuration, stop early
//	              once the 95% CI half-width of the churn-window mean
//	              min connectivity is at most f times its mean; -reps
//	              becomes the rep budget (requires -reps >= 2, not
//	              combinable with -checkpoint). Stop indices depend only
//	              on seeds and accumulated statistics, so artefacts stay
//	              identical for any -jobs value.
//	-list         list experiments and exit
//
// Examples:
//
//	kadsweep -list
//	kadsweep -exp table1
//	kadsweep -exp figure2 -scale tiny
//	kadsweep -exp figure2 -scale tiny -reps 3 -jobs 4
//	kadsweep -exp figure6 -scale reduced -reps 5 -csv out/ -json out/
//	kadsweep -exp all -scale tiny
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"kadre/internal/batch"
	"kadre/internal/report"
	"kadre/internal/scenario"
	"kadre/internal/stats"
	"kadre/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kadsweep:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	// Flag diagnostics (usage, parse errors) stay on the FlagSet's stderr
	// default; stdout carries only the program's results.
	fs := flag.NewFlagSet("kadsweep", flag.ContinueOnError)
	var (
		b      = batch.Register(fs)
		expID  = fs.String("exp", "", "experiment id (see -list), or 'all'")
		ciStop = fs.Float64("ci-stop", 0, "adaptive replication: stop a config's reps once the 95% CI half-width is at most this fraction of the mean churn-window min connectivity (0 = fixed -reps)")
		list   = fs.Bool("list", false, "list experiments and exit")
	)
	if err := b.Parse(args); err != nil {
		return err
	}
	if *ciStop < 0 {
		return fmt.Errorf("-ci-stop %v must be >= 0", *ciStop)
	}
	if *ciStop > 0 && b.Reps < 2 {
		return fmt.Errorf("-ci-stop needs -reps >= 2 (the rep budget a decision may stop short of)")
	}
	if *ciStop > 0 && b.CheckpointDir != "" {
		return fmt.Errorf("-ci-stop cannot be combined with -checkpoint (adaptive rep counts would invalidate resumed fixed-R checkpoints)")
	}

	if *list {
		exps, err := b.Scale.Experiments(b.Seed)
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
	switch len(b.Given("exp", "scenario")) {
	case 2:
		return fmt.Errorf("-exp and -scenario are mutually exclusive")
	case 0:
		return fmt.Errorf("-exp or -scenario is required (try -list)")
	}

	if b.Scenario != "" {
		exp, err := b.LoadScenario()
		if err != nil {
			return err
		}
		return sweepExperiments(stdout, b, *ciStop, exp)
	}

	const table1 = "Table 1: message loss scenarios"
	switch *expID {
	case "table1":
		return report.Table1(stdout, table1)
	case "all":
		exps, err := b.Scale.Experiments(b.Seed)
		if err != nil {
			return err
		}
		if err := report.Table1(stdout, table1); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
		return sweepExperiments(stdout, b, *ciStop, exps...)
	}
	exp, err := b.Scale.ExperimentByID(*expID, b.Seed)
	if err != nil {
		return err
	}
	return sweepExperiments(stdout, b, *ciStop, exp)
}

// sweepExperiments executes already-resolved experiments — catalogue
// entries and -scenario files share this path — through ONE shared worker
// pool (sweep.RunGroups): with -exp all, runs from the next experiment
// backfill idle workers while the previous experiment's stragglers
// finish, instead of draining the pool at every experiment boundary.
// Rendering and artefact writing happen per experiment, in input order,
// after all runs complete.
func sweepExperiments(stdout io.Writer, b *batch.Flags, ciStop float64, exps ...scenario.Experiment) error {
	if err := b.Prepare(); err != nil {
		return err
	}
	pooled := len(exps) > 1
	opts, err := b.SweepOptions(stdout, pooled)
	if err != nil {
		return err
	}
	groups := make([]sweep.Group, len(exps))
	totalConfigs := 0
	for i, exp := range exps {
		groups[i] = sweep.Group{Name: exp.ID, Configs: exp.Configs}
		totalConfigs += len(exp.Configs)
	}

	repsLabel := fmt.Sprintf("%d reps", b.Reps)
	if ciStop > 0 {
		repsLabel = fmt.Sprintf("<= %d adaptive reps (ci-stop %g)", b.Reps, ciStop)
	}
	finished := exps[0].ID
	if pooled {
		finished = fmt.Sprintf("%d experiments", len(exps))
		fmt.Fprintf(stdout, "=== pooled sweep: %d experiments, %d configs x %s (scale %s, jobs %d) ===\n",
			len(exps), totalConfigs, repsLabel, b.Scale.Name, b.Jobs)
	} else {
		fmt.Fprintf(stdout, "=== %s: %s (scale %s, %d configs x %s, jobs %d) ===\n",
			exps[0].ID, exps[0].Title, b.Scale.Name, totalConfigs, repsLabel, b.Jobs)
	}
	start := time.Now()

	// On failure both executors still hand back every experiment whose
	// runs all completed; render and persist those before reporting the
	// error, so a pooled -exp all sweep does not discard hours of
	// finished work.
	var allSets [][]*sweep.RunSet
	var runErr error
	if ciStop > 0 {
		allSets, runErr = runAdaptiveGroups(stdout, b, ciStop, exps)
	} else {
		allSets, runErr = sweep.RunGroups(groups, opts)
	}
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
		if b.CSVDir != "" {
			if err := writeCSVs(b, sets); err != nil {
				return err
			}
		}
		meta := sweep.JSONMeta{Experiment: exp.ID, Title: exp.Title, Scale: b.Scale.Name, Jobs: b.Jobs}
		if err := b.WriteJSON(exp.ID+".json", meta, sets); err != nil {
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

// runAdaptiveGroups is the -ci-stop executor: every configuration
// replicates adaptively (internal/sweep.RunAdaptive) until the 95% CI of
// its churn-window mean min connectivity is within ciStop of the
// mean, or the -reps budget runs out. Replications of one config fan out
// across -jobs workers; configs execute in order. The stop index depends
// only on seeds and accumulated statistics, so rep counts and every
// artefact are identical under any -jobs value. Experiments completed
// before a failure keep their RunSets, mirroring sweep.RunGroups.
func runAdaptiveGroups(stdout io.Writer, b *batch.Flags, ciStop float64, exps []scenario.Experiment) ([][]*sweep.RunSet, error) {
	// The default minimum of the replication-bound rule, capped by the
	// -reps budget (validated >= 2 with -ci-stop).
	minReps, _, _ := sweep.RepBounds(0, 0)
	if b.Reps < minReps {
		minReps = b.Reps
	}
	out := make([][]*sweep.RunSet, len(exps))
	for gi, exp := range exps {
		sets := make([]*sweep.RunSet, len(exp.Configs))
		for ci, cfg := range exp.Configs {
			name := cfg.Name
			if len(exps) > 1 {
				name = exp.ID + "/" + name
			}
			ar, err := sweep.RunAdaptive(context.Background(), cfg, sweep.AdaptiveOptions{
				Rule:    sweep.StopAtPrecision(ciStop),
				Extract: func(r *scenario.Result) float64 { return r.ChurnWindowSummary().Mean },
				MinReps: minReps, MaxReps: b.Reps, Jobs: b.Jobs,
				Progress: func(u sweep.RepUpdate) {
					if b.Quiet {
						return
					}
					ci95 := "n/a"
					if u.Reps >= 2 {
						ci95 = fmt.Sprintf("%.4f", u.CI95)
					}
					status := fmt.Sprintf("%v", u.Elapsed.Round(time.Millisecond))
					if u.Decided {
						status += fmt.Sprintf("; %s after %d reps", u.Verdict, u.Reps)
					}
					fmt.Fprintf(stdout, "  %s rep %d seed %d churn-mean %.3f ci95 %s (%s)\n",
						name, u.Rep, u.Seed, u.Value, ci95, status)
				},
			})
			if err != nil {
				return out, err
			}
			if sets[ci], err = ar.RunSet(); err != nil {
				return out, err
			}
		}
		out[gi] = sets
	}
	return out, nil
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
	// Figure-style output: min- and avg-connectivity charts over all
	// configurations, then per-configuration tables.
	minConn := func(rs *sweep.RunSet) *stats.AggregateSeries { return rs.Min }
	avgConn := func(rs *sweep.RunSet) *stats.AggregateSeries { return rs.Avg }
	if err := report.Chart(w, exp.Title+" — minimum connectivity", sets, minConn); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := report.Chart(w, exp.Title+" — average connectivity", sets, avgConn); err != nil {
		return err
	}
	for _, rs := range sets {
		fmt.Fprintln(w)
		if err := report.SnapshotTable(w, rs); err != nil {
			return err
		}
	}
	return nil
}

// writeCSVs writes one CSV per replication of every run, plus a
// per-config aggregate CSV when there are multiple reps.
func writeCSVs(b *batch.Flags, sets []*sweep.RunSet) error {
	for _, rs := range sets {
		for rep, r := range rs.Reps {
			var buf bytes.Buffer
			buf.WriteString("t_min,n,edges,min_conn,avg_conn,symmetry\n")
			for _, p := range r.Points {
				fmt.Fprintf(&buf, "%.0f,%d,%d,%d,%.3f,%.4f\n",
					p.Time.Minutes(), p.N, p.Edges, p.Min, p.Avg, p.Symmetry)
			}
			if err := os.WriteFile(b.CSVPath(rs.Config.Name, rep, ".csv"), buf.Bytes(), 0o666); err != nil {
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
		if err := os.WriteFile(b.CSVPath(rs.Config.Name, 0, "_agg.csv"), buf.Bytes(), 0o666); err != nil {
			return err
		}
	}
	return nil
}
