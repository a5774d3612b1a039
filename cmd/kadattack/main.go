// Command kadattack runs the adversarial node-removal experiments: every
// requested strategy attacks the same seeded network (identical topology
// and traffic until the attack window opens), and the output compares how
// fast each strategy degrades the paper's resilience metrics — minimum
// and average vertex connectivity, and the largest-SCC fraction — per
// node removed.
//
// Strategies (see internal/attack):
//
//	random   uniformly chosen victims: the baseline tying back to the
//	         paper's random churn, but on the adversary's schedule
//	degree   highest-degree victims (out+in in the latest snapshot)
//	cutset   victims on a minimum vertex cut of the latest snapshot —
//	         the adversary the paper's Equation 2 reasons about
//	eclipse  victims closest by XOR distance to a target identifier,
//	         erasing a keyspace region
//
// Runs execute on the parallel sweep engine with seed replication. Every
// rep count prints the same artefacts through the renderers kadsweep
// uses — both degradation charts, the summary table and the per-run
// tables, as cross-run means — and two or more reps add the confidence
// intervals (ci95 and reps columns, dotted chart band); Disconn(min) is
// the first snapshot at which any rep was disconnected. Every run is
// deterministic in its seed and the CSV/JSON artefacts exclude wall-clock
// data and the worker count, so the same invocation produces
// byte-identical files for any -jobs value.
//
// Flags (the shared batch flags -scale -scenario -seed -reps -jobs -csv
// -json -checkpoint -quiet are documented once, in internal/batch, and
// every run takes the default memory-governance policy, which is not a
// flag; -csv also writes attack_summary.csv and -json writes attack.json):
//
//	-strategies csv  comma-separated strategy list (default all four)
//	-budget n        total removals per run (default: half the network)
//	-interval d      strike interval (default: attack window / 8)
//
// The three flags edit the runs of the catalogue's attack experiment
// (specs/attack.json) before it resolves, so -budget and -interval
// complete through the same adversary rule as any spec's attack block
// (internal/scenario): kills are the budget spread over the strikes that
// fit the window at the effective interval. A -scenario spec's runs must
// all carry attack blocks; it replaces these three flags, so passing any
// of them beside it is an error.
//
// Examples:
//
//	kadattack -scale tiny
//	kadattack -scale tiny -strategies random,degree,cutset,eclipse
//	kadattack -scale reduced -reps 5 -csv out/ -json out/
//	kadattack -scale paper -reps 3 -checkpoint ckpt/ -json out/
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"kadre/internal/attack"
	"kadre/internal/batch"
	"kadre/internal/report"
	"kadre/internal/scenario"
	"kadre/internal/stats"
	"kadre/internal/sweep"
	"kadre/internal/workload"
	"kadre/specs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kadattack:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("kadattack", flag.ContinueOnError)
	var (
		b          = batch.Register(fs)
		strategies = fs.String("strategies", "random,degree,cutset,eclipse", "comma-separated attack strategies")
		budget     = fs.Int("budget", 0, "total removals per run (0 = half the network)")
		interval   = fs.Duration("interval", 0, "strike interval (0 = attack window / 8)")
	)
	if err := b.Parse(args); err != nil {
		return err
	}
	if *budget < 0 {
		return fmt.Errorf("-budget %d must be >= 0", *budget)
	}
	if *interval < 0 {
		return fmt.Errorf("-interval %v must be >= 0", *interval)
	}

	var exp scenario.Experiment
	if b.Scenario != "" {
		// A scenario spec fully defines the attack runs.
		if own := b.Given("strategies", "budget", "interval"); len(own) > 0 {
			return fmt.Errorf("-scenario is mutually exclusive with %s (the spec defines the attacks)", strings.Join(own, ", "))
		}
		var err error
		if exp, err = b.LoadScenario(); err != nil {
			return err
		}
		for _, cfg := range exp.Configs {
			if !cfg.Attack.Enabled() {
				return fmt.Errorf("scenario %s: run %q has no attack block; kadattack needs attack-enabled runs (use kadsweep for plain scenarios)", b.Scenario, cfg.Name)
			}
		}
	} else {
		strats, err := attack.ParseStrategies(*strategies)
		if err != nil {
			return err
		}
		if exp, err = attackExperiment(b, strats, *budget, *interval); err != nil {
			return err
		}
	}

	if err := b.Prepare(); err != nil {
		return err
	}
	opts, err := b.SweepOptions(stdout, false)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "=== attack: %s (scale %s, %d strategies x %d reps) ===\n",
		exp.Title, b.Scale.Name, len(exp.Configs), b.Reps)
	sets, err := sweep.Run(exp.Configs, opts)
	if err != nil {
		return err
	}

	if b.CSVDir != "" {
		if err := writeCSVs(b, sets); err != nil {
			return err
		}
	}
	// Jobs is deliberately left out of the metadata: the document must be
	// byte-identical for every -jobs value.
	meta := sweep.JSONMeta{Experiment: exp.ID, Title: exp.Title, Scale: b.Scale.Name}
	if err := b.WriteJSON("attack.json", meta, sets); err != nil {
		return err
	}
	return render(stdout, exp, sets)
}

// attackExperiment resolves the catalogue's attack experiment with the
// flags applied to its runs before resolution: one run per strategy, in
// -strategies order, each attack block taking -budget and -interval when
// they are positive. A custom interval moves the strikes, not the
// measurements: snapshots stay on the default strike cadence, so curves
// under different intervals share their time axis.
func attackExperiment(b *batch.Flags, strats []attack.Strategy, budget int, interval time.Duration) (scenario.Experiment, error) {
	data, err := specs.FS.ReadFile("attack.json")
	if err != nil {
		return scenario.Experiment{}, err
	}
	sp, err := workload.Decode(data)
	if err != nil {
		return scenario.Experiment{}, err
	}
	// The unedited runs snapshot on the default strike cadence.
	def, err := scenario.FromSpec(sp, b.Scale, b.Seed)
	if err != nil {
		return scenario.Experiment{}, err
	}
	cadence := minutes(def.Configs[0].SnapshotInterval)
	runs := make([]workload.RunSpec, len(strats))
	for i, st := range strats {
		// The file holds one run per strategy ParseStrategies accepts.
		j := slices.IndexFunc(sp.Runs, func(r workload.RunSpec) bool { return r.Attack.Strategy == string(st) })
		run, a := sp.Runs[j], *sp.Runs[j].Attack
		if budget > 0 {
			a.Budget = &budget
		}
		if interval > 0 {
			a.IntervalMinutes = minutes(interval)
		}
		run.Attack, run.SnapshotMinutes = &a, &cadence
		runs[i] = run
	}
	sp.Runs = runs
	return scenario.FromSpec(sp, b.Scale, b.Seed)
}

// minutes converts d into a spec's minutes, nudged up one float step
// where d.Minutes() falls just short, so that workload.Minutes gives d
// back to the nanosecond (100s would otherwise resolve to 1m39.999999999s).
func minutes(d time.Duration) float64 {
	m := d.Minutes()
	if workload.Minutes(m) < d {
		m = math.Nextafter(m, math.Inf(1))
	}
	return m
}

// render writes both degradation charts, the summary and the per-run
// tables, whatever the rep count.
func render(w io.Writer, exp scenario.Experiment, sets []*sweep.RunSet) error {
	minConn := func(rs *sweep.RunSet) *stats.AggregateSeries { return rs.Min }
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
	for _, rs := range sets {
		fmt.Fprintln(w)
		if err := report.SnapshotTable(w, rs); err != nil {
			return err
		}
	}
	return nil
}

// writeCSVs emits one degradation CSV per replication and a cross-strategy
// summary.
func writeCSVs(b *batch.Flags, sets []*sweep.RunSet) error {
	for _, rs := range sets {
		for rep, r := range rs.Reps {
			var buf bytes.Buffer
			buf.WriteString("t_min,removed,n,edges,min_conn,avg_conn,scc_frac\n")
			for _, p := range r.Points {
				fmt.Fprintf(&buf, "%.0f,%d,%d,%d,%d,%.3f,%.4f\n",
					p.Time.Minutes(), p.Removed, p.N, p.Edges, p.Min, p.Avg, p.SCC)
			}
			if err := os.WriteFile(b.CSVPath(rs.Config.Name, rep, ".csv"), buf.Bytes(), 0o666); err != nil {
				return err
			}
		}
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
	return os.WriteFile(filepath.Join(b.CSVDir, "attack_summary.csv"), buf.Bytes(), 0o666)
}
