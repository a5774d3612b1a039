// Distributed intrusion detection system (IDS): the paper's second
// motivating CPS (§1) — sensors across corporate branches cooperate via
// Kademlia while machines continually join and leave (churn 1/1,
// Simulation E/F style). The example sizes the bucket parameter k against
// an assumed attacker budget a (Equation 2: kappa > r >= a), runs the
// network, and then plays the adversary: it extracts the minimum vertex
// cut from the final snapshot, compromises exactly those nodes, and shows
// the partition — and that compromising one node fewer leaves the IDS
// connected.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"kadre/internal/connectivity"
	"kadre/internal/graph"
	"kadre/internal/scenario"
	"kadre/internal/snapshot"
	"kadre/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ids:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ids", flag.ContinueOnError)
	sensors := fs.Int("sensors", 120, "number of IDS sensors (paper large scenario: 2500)")
	budget := fs.Int("attackers", 7, "attacker budget a to design against")
	if err := fs.Parse(args); err != nil {
		return err
	}
	size, attackers := *sensors, *budget
	// Design rule from the paper's conclusion: kappa tracks k, so pick
	// k > a with margin for churn-induced dips. Tolerating a compromised
	// nodes needs kappa(D) > a (Equation 2), so at least a+1.
	need := attackers + 1
	k := need + need/2
	if k < 10 {
		k = 10
	}
	fmt.Fprintf(stdout, "IDS: %d sensors, attacker budget a=%d -> need kappa >= %d -> bucket size k=%d\n\n",
		size, attackers, need, k)

	cfg := scenario.Config{
		Name: "IDS", Seed: 23, Size: size,
		K:                k,
		Staleness:        1,
		Traffic:          true,
		Churn:            workload.Churn1_1, // machines rotate constantly
		Setup:            30 * time.Minute,
		Stabilize:        90 * time.Minute,
		ChurnPhase:       120 * time.Minute,
		SnapshotInterval: 30 * time.Minute,
		SampleFraction:   0.05,
	}

	var lastSnap *snapshot.Snapshot
	cfg.OnSnapshot = func(s *snapshot.Snapshot, _ scenario.SnapshotStat) { lastSnap = s }

	res, err := scenario.Run(cfg)
	if err != nil {
		return err
	}

	ok := true
	fmt.Fprintln(stdout, "time(min)  sensors  minConn  kappa > a?")
	for _, p := range res.Points {
		verdict := "yes"
		if p.Min <= attackers {
			verdict = "NO — under-provisioned at this instant"
			ok = false
		}
		fmt.Fprintf(stdout, "%8.0f  %7d  %7d  %s\n", p.Time.Minutes(), p.N, p.Min, verdict)
	}
	sum := res.ChurnWindowSummary()
	fmt.Fprintf(stdout, "\nchurn phase: mean min connectivity %.2f, relative variance %.2f (Table 2's metrics)\n", sum.Mean, sum.RV)
	if !ok {
		fmt.Fprintln(stdout, "note: transient dips below the budget are exactly the paper's warning about strong churn")
	}

	if lastSnap == nil || lastSnap.N() < 3 {
		return fmt.Errorf("no usable final snapshot")
	}

	// Adversary time: find and execute the optimal attack on the final
	// topology.
	fmt.Fprintf(stdout, "\n--- adversary analysis on the final snapshot (%d sensors) ---\n", lastSnap.N())
	eng := connectivity.MustNewEngine(connectivity.EngineOptions{})
	eng.Bind(lastSnap.Graph)
	cut, pair, found, err := eng.GraphCut(connectivity.Query{SampleFraction: 0.05})
	if err != nil {
		return err
	}
	if !found {
		fmt.Fprintln(stdout, "graph is complete; no vertex cut exists")
		return nil
	}
	fmt.Fprintf(stdout, "minimum vertex cut: %d sensors; witness pair %v\n", len(cut), pair)

	kappa := residual(eng, lastSnap.Graph, cut)
	fmt.Fprintf(stdout, "compromising all %d cut sensors: residual kappa = %d -> %s\n",
		len(cut), kappa, partitionVerdict(kappa))

	if len(cut) > 1 {
		spared := cut[1:] // leave one cut sensor honest
		kappa := residual(eng, lastSnap.Graph, spared)
		fmt.Fprintf(stdout, "compromising only %d of them:      residual kappa = %d -> %s\n",
			len(spared), kappa, partitionVerdict(kappa))
	}
	return nil
}

// residual binds eng to g with the compromised sensors removed and
// returns the exact kappa(D) of what is left.
func residual(eng *connectivity.Engine, g *graph.Digraph, compromised []int) int {
	left, _ := connectivity.RemoveVertices(g, compromised)
	eng.Bind(left)
	return eng.Analyze(connectivity.Query{SampleFraction: 1, MinOnly: true}).Min
}

func partitionVerdict(kappa int) string {
	if kappa == 0 {
		return "IDS partitioned: coordinated detection broken"
	}
	return "IDS still connected: r-resilience held"
}
