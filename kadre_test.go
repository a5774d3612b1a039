package kadre

import (
	"testing"
	"time"
)

func TestFacadeGraphAnalysis(t *testing.T) {
	// C6 as an undirected graph: kappa = 2.
	g := NewGraph(6)
	for i := 0; i < 6; i++ {
		g.AddEdge(i, (i+1)%6)
		g.AddEdge((i+1)%6, i)
	}
	if kappa := VertexConnectivity(g); kappa != 2 {
		t.Fatalf("VertexConnectivity(C6) = %d, want 2", kappa)
	}
	if r := Resilience(2); r != 1 {
		t.Fatalf("Resilience(2) = %d, want 1", r)
	}
	if need := RequiredConnectivity(3); need != 4 {
		t.Fatalf("RequiredConnectivity(3) = %d, want 4", need)
	}
	k, err := PairConnectivity(g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if k != 2 {
		t.Fatalf("PairConnectivity(0,3) = %d, want 2", k)
	}
	res, err := AnalyzeConnectivity(g, ConnectivityQuery{SampleFraction: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Min != 2 || res.Avg != 2.0 {
		t.Fatalf("AnalyzeConnectivity = %+v", res)
	}
}

func TestFacadeNodeLifecycle(t *testing.T) {
	sim := NewSimulator(1)
	net := NewNetwork(sim, NetworkConfig{})
	cfg := NodeConfig{Bits: 64, K: 4, Alpha: 2, StalenessLimit: 1}
	var nodes []*Node
	for i := 0; i < 12; i++ {
		n, err := NewNode(cfg, Addr(i+1), net)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	for i := 1; i < len(nodes); i++ {
		if err := nodes[i].Join(nodes[0].Contact(), nil); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunUntil(5 * time.Minute)

	snap := CaptureSnapshot(sim.Now(), nodes)
	if snap.N() != 12 {
		t.Fatalf("snapshot size %d, want 12", snap.N())
	}
	res, err := AnalyzeConnectivity(snap.Graph, ConnectivityQuery{SampleFraction: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Min == 0 {
		t.Fatal("bootstrapped network is disconnected")
	}
}

func TestFacadeScenario(t *testing.T) {
	res, err := RunScenario(ScenarioConfig{
		Name: "facade", Seed: 9, Size: 30, K: 4,
		Setup: 10 * time.Minute, Stabilize: 10 * time.Minute,
		SnapshotInterval: 10 * time.Minute, SampleFraction: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no measurement points")
	}
	if res.Points[len(res.Points)-1].N != 30 {
		t.Fatalf("final size %d", res.Points[len(res.Points)-1].N)
	}
}

func TestFacadeScales(t *testing.T) {
	s, err := ScaleByName("tiny")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != TinyScale.Name {
		t.Fatal("scale mismatch")
	}
	if exps, err := s.Experiments(1); err != nil || len(exps) != 16 {
		t.Fatalf("experiment catalogue: %d experiments, err %v; want 16", len(exps), err)
	}
	if PaperScale.Small != 250 || PaperScale.Large != 2500 {
		t.Fatal("paper scale wrong")
	}
}

func TestFacadeIDs(t *testing.T) {
	a := HashID(160, []byte("x"))
	b, err := ParseID(160, a.String())
	if err != nil || !a.Equal(b) {
		t.Fatal("id round trip failed")
	}
	if _, err := NewID(160, []byte{1}); err == nil {
		t.Fatal("short id should fail")
	}
}

func TestFacadeChurnRates(t *testing.T) {
	if Churn0_1.String() != "0/1" || Churn1_1.String() != "1/1" || Churn10_10.String() != "10/10" {
		t.Fatal("churn rate constants wrong")
	}
	if LossHigh.TwoWayLoss() < 0.49 || LossHigh.TwoWayLoss() > 0.51 {
		t.Fatal("Table 1 high loss wrong")
	}
}

func TestFacadeAttack(t *testing.T) {
	if got := AttackStrategies(); len(got) != 4 || got[0] != AttackRandom || got[3] != AttackEclipse {
		t.Fatalf("strategy registry wrong: %v", got)
	}
	if _, err := ParseAttackStrategies("degree,borg"); err == nil {
		t.Fatal("unknown strategy should fail to parse")
	}
	cfg := ScenarioConfig{
		Name: "facade-attack", Seed: 1, Size: 16, K: 5, Staleness: 1,
		Setup: 4 * time.Minute, Stabilize: 6 * time.Minute,
		ChurnPhase: 10 * time.Minute, SnapshotInterval: 5 * time.Minute,
		SampleFraction: 0.2,
		Attack: AttackConfig{
			Strategy: AttackDegree, Budget: 4, Kills: 2, Interval: 5 * time.Minute,
		},
	}
	res, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AttackRemoved != 4 || len(res.Victims) != 4 {
		t.Fatalf("adversary removed %d (%d victims), want 4", res.AttackRemoved, len(res.Victims))
	}
	exp, err := TinyScale.ExperimentByID("attack", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range AttackStrategies() {
		if exp.Configs[i].Attack.Strategy != st {
			t.Fatalf("attack experiment run %d attacks with %q, want %q", i, exp.Configs[i].Attack.Strategy, st)
		}
	}
	// RunExperiment hands back one result per config, in config order.
	results, err := RunExperiment(exp, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Config.Name != exp.Configs[i].Name || r.AttackRemoved == 0 {
			t.Fatalf("result %d: run %q removed %d, want run %q attacked", i, r.Config.Name, r.AttackRemoved, exp.Configs[i].Name)
		}
	}
}
