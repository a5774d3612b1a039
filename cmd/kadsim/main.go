// Command kadsim runs one Kademlia resilience simulation and reports the
// connectivity time series, mirroring the paper's per-simulation
// methodology: randomized setup, stabilization, optional churn/traffic/
// loss, and periodic connectivity snapshots. The run is printed as a
// one-rep sweep.RunSet through the renderers kadsweep uses: the snapshot
// table (t, n, minConn, avgConn; edge counts and symmetry are in the
// per-snapshot log lines) and one chart each of the minimum and the
// average connectivity.
//
// Examples:
//
//	kadsim -size 250 -k 20 -churn 1/1 -traffic -churn-mins 240
//	kadsim -size 100 -k 10 -loss medium -staleness 5 -snapshots out/
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"kadre/internal/kademlia"
	"kadre/internal/report"
	"kadre/internal/scenario"
	"kadre/internal/snapshot"
	"kadre/internal/stats"
	"kadre/internal/sweep"
	"kadre/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kadsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("kadsim", flag.ContinueOnError)
	var (
		size      = fs.Int("size", 100, "initial network size")
		k         = fs.Int("k", kademlia.DefaultK, "bucket size k")
		alpha     = fs.Int("alpha", kademlia.DefaultAlpha, "request parallelism alpha")
		bits      = fs.Int("bits", kademlia.DefaultBits, "identifier bit-length b")
		staleness = fs.Int("staleness", 1, "staleness limit s")
		lossName  = fs.String("loss", "none", "message loss scenario: none, low, medium, high")
		churnSpec = fs.String("churn", "0/0", "churn rate add/remove per minute, e.g. 1/1")
		traffic   = fs.Bool("traffic", false, "enable 10 lookups + 1 dissemination per node per minute")
		seed      = fs.Int64("seed", 1, "simulation seed")
		setupM    = fs.Int("setup-mins", 30, "setup phase length (minutes)")
		stabM     = fs.Int("stabilize-mins", 90, "stabilization phase length (minutes)")
		churnM    = fs.Int("churn-mins", 120, "churn/observation phase length (minutes)")
		snapM     = fs.Int("interval-mins", 20, "snapshot interval (minutes)")
		sampleC   = fs.Float64("c", scenario.DefaultSampleFraction, "connectivity sampling fraction (paper's c)")
		snapDir   = fs.String("snapshots", "", "directory to write per-snapshot JSON graphs")
		chart     = fs.Bool("chart", true, "render an ASCII chart of the series")
		quiet     = fs.Bool("quiet", false, "suppress progress lines")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The flags are one run of a spec document, checked and defaulted by
	// the code that resolves spec files, so an explicit 0 is refused
	// where the config layer would replace it with a default.
	minutes := func(m int) *float64 { f := float64(m); return &f }
	sp := workload.Spec{Version: workload.SpecVersion, ID: "kadsim", Runs: []workload.RunSpec{{
		Name: "kadsim", Size: &workload.Size{Nodes: *size},
		K: k, Alpha: alpha, Bits: bits, Staleness: staleness,
		Loss: lossName, Churn: churnSpec, Traffic: traffic,
		ChurnMinutes: minutes(*churnM), SetupMinutes: minutes(*setupM),
		StabilizeMinutes: minutes(*stabM), SnapshotMinutes: minutes(*snapM),
		SampleFraction: sampleC,
	}}}
	if err := sp.Check(); err != nil {
		return err
	}
	cfg, err := scenario.ResolveRun(sp.Runs[0], scenario.PaperScale, *seed)
	if err != nil {
		return err
	}

	// Unless -quiet, each snapshot prints a progress line; under
	// -snapshots it is also written to disk. The first failed write stops
	// further writes and, after the run's results are printed, fails the
	// command: artefacts are missing.
	var writeErr error
	if *snapDir != "" {
		if err := os.MkdirAll(*snapDir, 0o755); err != nil {
			return fmt.Errorf("create snapshot dir: %w", err)
		}
	}
	if !*quiet || *snapDir != "" {
		cfg.OnSnapshot = func(s *snapshot.Snapshot, p scenario.SnapshotStat) {
			if !*quiet {
				fmt.Fprintf(stdout, "%s t=%3.0fm n=%4d edges=%6d min=%3d avg=%6.1f sym=%.3f\n",
					cfg.Name, p.Time.Minutes(), p.N, p.Edges, p.Min, p.Avg, p.Symmetry)
			}
			if *snapDir != "" && writeErr == nil {
				writeErr = writeSnapshot(*snapDir, s)
			}
		}
	}

	res, err := scenario.Run(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "\nrun complete: %d snapshots, churn +%d/-%d, %d traffic ops, %d messages sent (%d lost), wall %v\n\n",
		len(res.Points), res.ChurnAdded, res.ChurnRemoved, res.TrafficOps,
		res.Network.Sent, res.Network.Lost, res.Elapsed.Round(time.Millisecond))

	// One run is a one-rep RunSet, rendered like any sweep's.
	rs := &sweep.RunSet{Config: cfg, Reps: []*scenario.Result{res}}
	if err := rs.Aggregate(); err != nil {
		return err
	}
	if err := report.SnapshotTable(stdout, rs); err != nil {
		return err
	}
	if *chart {
		sets := []*sweep.RunSet{rs}
		minConn := func(rs *sweep.RunSet) *stats.AggregateSeries { return rs.Min }
		avgConn := func(rs *sweep.RunSet) *stats.AggregateSeries { return rs.Avg }
		fmt.Fprintln(stdout)
		if err := report.Chart(stdout, "minimum connectivity over time", sets, minConn); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
		if err := report.Chart(stdout, "average connectivity over time", sets, avgConn); err != nil {
			return err
		}
	}
	if writeErr != nil {
		return fmt.Errorf("snapshot persistence: %w", writeErr)
	}
	return nil
}

func writeSnapshot(dir string, s *snapshot.Snapshot) error {
	path := filepath.Join(dir, fmt.Sprintf("snapshot-%06.0fm.json", s.Time.Minutes()))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	if err := s.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
