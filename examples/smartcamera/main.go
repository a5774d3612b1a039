// Smart camera network (SCN): the paper's first motivating cyber-physical
// system (§1). A fleet of networked cameras organizes itself with
// Kademlia, continuously exchanges observations (data traffic), and
// suffers ongoing hardware failures without replacement (churn 0/1) —
// Simulation C of the paper. The example reports how the connectivity,
// and therefore the number of simultaneously compromised or failed
// cameras the surveillance system tolerates, evolves as cameras die.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"kadre/internal/churn"
	"kadre/internal/connectivity"
	"kadre/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "smartcamera:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("smartcamera", flag.ContinueOnError)
	cameras := fs.Int("cameras", 100, "number of cameras (paper: 250)")
	bucket := fs.Int("k", 10, "Kademlia bucket size")
	if err := fs.Parse(args); err != nil {
		return err
	}
	size, k := *cameras, *bucket
	fmt.Fprintf(stdout, "smart camera network: %d cameras, k=%d, cameras fail at 1/minute after stabilization\n\n", size, k)

	failPhase := time.Duration(size-10) * time.Minute
	cfg := scenario.Config{
		Name: "SCN", Seed: 11, Size: size,
		K:                k,
		Staleness:        1,                // detect dead cameras after one failed exchange
		Traffic:          true,             // cameras exchange tracking data constantly
		Churn:            churn.Rate0_1,    // cameras fail and are not replaced
		Setup:            30 * time.Minute, // staggered power-on
		Stabilize:        90 * time.Minute,
		ChurnPhase:       failPhase,
		SnapshotInterval: 30 * time.Minute,
		SampleFraction:   0.05,
	}

	res, err := scenario.Run(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintln(stdout, "time(min)  cameras  minConn  tolerated failures/compromises")
	for _, p := range res.Points {
		r := connectivity.Resilience(p.Min)
		verdict := fmt.Sprintf("%d", r)
		if p.Min == 0 {
			verdict = "NETWORK PARTITIONED"
		}
		fmt.Fprintf(stdout, "%8.0f  %7d  %7d  %s\n", p.Time.Minutes(), p.N, p.Min, verdict)
	}

	// The paper's design rule: to tolerate a compromised cameras the
	// operator must pick k > a (Conclusion, §6). Check it against the
	// stabilized network.
	var stabilized *scenario.SnapshotStat
	for i := range res.Points {
		if res.Points[i].Time >= cfg.ChurnStart() {
			stabilized = &res.Points[i]
			break
		}
	}
	if stabilized != nil {
		fmt.Fprintf(stdout, "\nafter stabilization: kappa=%d with k=%d — ", stabilized.Min, k)
		if stabilized.Min >= k {
			fmt.Fprintf(stdout, "the paper's kappa ~ k observation holds; size the bucket as k > a for a tolerated attackers\n")
		} else {
			fmt.Fprintf(stdout, "below k; small networks and small k need the stabilization traffic to converge (cf. Sim C setup anomaly)\n")
		}
	}
	return nil
}
