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
	"os"
	"time"

	"kadre"
)

func main() {
	size := flag.Int("sensors", 120, "number of IDS sensors (paper large scenario: 2500)")
	attackers := flag.Int("attackers", 7, "attacker budget a to design against")
	flag.Parse()
	if err := run(*size, *attackers); err != nil {
		fmt.Fprintln(os.Stderr, "ids:", err)
		os.Exit(1)
	}
}

func run(size, attackers int) error {
	// Design rule from the paper's conclusion: kappa tracks k, so pick
	// k > a with margin for churn-induced dips.
	need := kadre.RequiredConnectivity(attackers)
	k := need + need/2
	if k < 10 {
		k = 10
	}
	fmt.Printf("IDS: %d sensors, attacker budget a=%d -> need kappa >= %d -> bucket size k=%d\n\n",
		size, attackers, need, k)

	cfg := kadre.ScenarioConfig{
		Name: "IDS", Seed: 23, Size: size,
		K:                k,
		Staleness:        1,
		Traffic:          true,
		Churn:            kadre.Churn1_1, // machines rotate constantly
		Setup:            30 * time.Minute,
		Stabilize:        90 * time.Minute,
		ChurnPhase:       120 * time.Minute,
		SnapshotInterval: 30 * time.Minute,
		SampleFraction:   0.05,
	}

	var lastSnap *kadre.Snapshot
	cfg.OnSnapshot = func(s *kadre.Snapshot, _ kadre.SnapshotStat) { lastSnap = s }

	res, err := kadre.RunScenario(cfg)
	if err != nil {
		return err
	}

	ok := true
	fmt.Println("time(min)  sensors  minConn  kappa > a?")
	for _, p := range res.Points {
		verdict := "yes"
		if p.Min <= attackers {
			verdict = "NO — under-provisioned at this instant"
			ok = false
		}
		fmt.Printf("%8.0f  %7d  %7d  %s\n", p.Time.Minutes(), p.N, p.Min, verdict)
	}
	sum := res.ChurnWindowSummary()
	fmt.Printf("\nchurn phase: mean min connectivity %.2f, relative variance %.2f (Table 2's metrics)\n", sum.Mean, sum.RV)
	if !ok {
		fmt.Println("note: transient dips below the budget are exactly the paper's warning about strong churn")
	}

	if lastSnap == nil || lastSnap.N() < 3 {
		return fmt.Errorf("no usable final snapshot")
	}

	// Adversary time: find and execute the optimal attack on the final
	// topology.
	fmt.Printf("\n--- adversary analysis on the final snapshot (%d sensors) ---\n", lastSnap.N())
	cut, pair, found, err := kadre.GraphCut(lastSnap.Graph, kadre.ConnectivityQuery{SampleFraction: 0.05})
	if err != nil {
		return err
	}
	if !found {
		fmt.Println("graph is complete; no vertex cut exists")
		return nil
	}
	fmt.Printf("minimum vertex cut: %d sensors; witness pair %v\n", len(cut), pair)

	compromised, mapping := kadre.RemoveVertices(lastSnap.Graph, cut)
	after, err := kadre.AnalyzeConnectivity(compromised, kadre.ConnectivityQuery{SampleFraction: 1.0, MinOnly: true})
	if err != nil {
		return err
	}
	fmt.Printf("compromising all %d cut sensors: residual kappa = %d -> %s\n",
		len(cut), after.Min, partitionVerdict(after.Min))

	if len(cut) > 1 {
		spared := cut[1:] // leave one cut sensor honest
		partial, _ := kadre.RemoveVertices(lastSnap.Graph, spared)
		res2, err := kadre.AnalyzeConnectivity(partial, kadre.ConnectivityQuery{SampleFraction: 1.0, MinOnly: true})
		if err != nil {
			return err
		}
		fmt.Printf("compromising only %d of them:      residual kappa = %d -> %s\n",
			len(spared), res2.Min, partitionVerdict(res2.Min))
	}
	_ = mapping
	return nil
}

func partitionVerdict(kappa int) string {
	if kappa == 0 {
		return "IDS partitioned: coordinated detection broken"
	}
	return "IDS still connected: r-resilience held"
}
