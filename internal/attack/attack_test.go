package attack

import (
	"slices"
	"testing"
	"time"

	"kadre/internal/eventsim"
	"kadre/internal/graph"
	"kadre/internal/id"
	"kadre/internal/simnet"
	"kadre/internal/snapshot"
)

// fakePop is a deterministic Population over a fixed topology: vertex i
// has address i+1 and identifier FromUint64(i). Removals delete the
// vertex; captures number the survivors densely in vertex order, like
// snapshot.Capture numbers live nodes.
type fakePop struct {
	bits  int
	alive []bool
	edges [][2]int
	sim   *eventsim.Simulator
}

func newFakePop(sim *eventsim.Simulator, n int, edges [][2]int) *fakePop {
	p := &fakePop{bits: 16, alive: make([]bool, n), edges: edges, sim: sim}
	for i := range p.alive {
		p.alive[i] = true
	}
	return p
}

func (p *fakePop) addrOf(v int) simnet.Addr { return simnet.Addr(v + 1) }

func (p *fakePop) Capture() *snapshot.Snapshot {
	s := &snapshot.Snapshot{Time: p.sim.Now()}
	rank := make(map[int]int, len(p.alive))
	for v, a := range p.alive {
		if a {
			rank[v] = len(s.IDs)
			s.IDs = append(s.IDs, id.FromUint64(p.bits, uint64(v)))
			s.Addrs = append(s.Addrs, p.addrOf(v))
		}
	}
	s.Graph = graph.NewDigraph(len(s.IDs))
	for _, e := range p.edges {
		u, uok := rank[e[0]]
		v, vok := rank[e[1]]
		if uok && vok {
			s.Graph.AddEdge(u, v)
			s.Graph.AddEdge(v, u)
		}
	}
	return s
}

func (p *fakePop) RemoveNode(addr simnet.Addr) bool {
	v := int(addr) - 1
	if v < 0 || v >= len(p.alive) || !p.alive[v] {
		return false
	}
	p.alive[v] = false
	return true
}

func (p *fakePop) liveCount() int {
	n := 0
	for _, a := range p.alive {
		if a {
			n++
		}
	}
	return n
}

// ring returns undirected ring edges over n vertices.
func ring(n int) [][2]int {
	out := make([][2]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, [2]int{i, (i + 1) % n})
	}
	return out
}

func runAttack(t *testing.T, seed int64, cfg Config, n int, edges [][2]int) (*Engine, *fakePop) {
	t.Helper()
	sim := eventsim.New(seed)
	pop := newFakePop(sim, n, edges)
	eng, err := NewEngine(sim, cfg, pop)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(0, time.Hour); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(time.Hour)
	return eng, pop
}

// TestParseStrategies pins the registry's canonical order and that
// ParseStrategy reads back every registered name, surrounding space
// included, and nothing else.
func TestParseStrategies(t *testing.T) {
	want := []Strategy{Random, Degree, Cutset, Eclipse}
	if got := Strategies(); !slices.Equal(got, want) {
		t.Fatalf("Strategies() = %v, want %v", got, want)
	}
	for _, st := range want {
		got, err := ParseStrategy(" " + string(st) + " ")
		if err != nil || got != st {
			t.Fatalf("ParseStrategy(%q) = %q, %v", st, got, err)
		}
	}
	for _, bad := range []string{"", "bogus", "degree,cutset"} {
		if _, err := ParseStrategy(bad); err == nil {
			t.Fatalf("ParseStrategy(%q) should fail", bad)
		}
	}
}

func TestConfigValidateAndDefaults(t *testing.T) {
	cfg := Config{Strategy: Random}.WithDefaults()
	if cfg.Kills != 1 || cfg.Interval != time.Minute || cfg.SampleFraction == 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("disabled config must validate: %v", err)
	}
	if err := (Config{Strategy: "santa"}.WithDefaults()).Validate(); err == nil {
		t.Fatal("unknown strategy must fail validation")
	}
	if err := (Config{Strategy: Random, Interval: -time.Second}).Validate(); err == nil {
		t.Fatal("negative interval must fail validation")
	}
}

func TestEngineBudgetAndFloor(t *testing.T) {
	// Budget 5, 2 kills per strike: exactly 5 victims.
	eng, pop := runAttack(t, 1, Config{
		Strategy: Random, Budget: 5, Kills: 2, Interval: time.Minute,
	}, 20, ring(20))
	if eng.Removed() != 5 {
		t.Fatalf("removed %d, want budget 5", eng.Removed())
	}
	if pop.liveCount() != 15 {
		t.Fatalf("live %d, want 15", pop.liveCount())
	}

	// Unlimited budget with a huge kill count: stops at the 2-node floor.
	eng, pop = runAttack(t, 1, Config{
		Strategy: Random, Kills: 100, Interval: time.Minute,
	}, 12, ring(12))
	if pop.liveCount() != 2 {
		t.Fatalf("live %d, want floor of 2", pop.liveCount())
	}
	if eng.Removed() != 10 {
		t.Fatalf("removed %d, want 10", eng.Removed())
	}
}

func TestStrikeScheduleRespectsWindow(t *testing.T) {
	sim := eventsim.New(1)
	pop := newFakePop(sim, 50, ring(50))
	eng, err := NewEngine(sim, Config{Strategy: Random, Kills: 1, Interval: 10 * time.Minute}, pop)
	if err != nil {
		t.Fatal(err)
	}
	// Window [30m, 60m): strikes at 30, 40, 50 only.
	if err := eng.Start(30*time.Minute, time.Hour); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(2 * time.Hour)
	if eng.Strikes() != 3 || eng.Removed() != 3 {
		t.Fatalf("strikes=%d removed=%d, want 3 and 3", eng.Strikes(), eng.Removed())
	}
	for _, v := range eng.Victims() {
		if v.Time < 30*time.Minute || v.Time >= time.Hour {
			t.Fatalf("victim at %v outside window", v.Time)
		}
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	cfg := Config{Strategy: Random, Budget: 8, Kills: 2, Interval: time.Minute}
	a, _ := runAttack(t, 7, cfg, 30, ring(30))
	b, _ := runAttack(t, 7, cfg, 30, ring(30))
	c, _ := runAttack(t, 8, cfg, 30, ring(30))
	if len(a.Victims()) != len(b.Victims()) {
		t.Fatalf("same seed, different victim counts")
	}
	for i := range a.Victims() {
		if a.Victims()[i] != b.Victims()[i] {
			t.Fatalf("same seed, victim %d differs: %+v vs %+v", i, a.Victims()[i], b.Victims()[i])
		}
	}
	same := len(a.Victims()) == len(c.Victims())
	if same {
		for i := range a.Victims() {
			if a.Victims()[i] != c.Victims()[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical victim sequences")
	}
}

func TestDegreeTargetsHub(t *testing.T) {
	// Star: vertex 0 is the hub; plus a ring over the leaves so the graph
	// stays connected after the hub dies.
	edges := ring(9)
	for i := range edges {
		edges[i] = [2]int{edges[i][0] + 1, edges[i][1] + 1}
	}
	for leaf := 1; leaf < 10; leaf++ {
		edges = append(edges, [2]int{0, leaf})
	}
	eng, _ := runAttack(t, 1, Config{Strategy: Degree, Budget: 1, Kills: 1, Interval: time.Minute}, 10, edges)
	if len(eng.Victims()) != 1 || eng.Victims()[0].Addr != 1 {
		t.Fatalf("degree attack removed %+v, want the hub (addr 1)", eng.Victims())
	}
}

func TestEclipseTargetsClosestIDs(t *testing.T) {
	// Identifiers are FromUint64(v); target value 4 makes vertices 4, 5
	// (distance 1), 6 (distance 2)... the closest region.
	target := id.FromUint64(16, 4)
	eng, pop := runAttack(t, 1, Config{
		Strategy: Eclipse, Budget: 3, Kills: 3, Interval: time.Minute, Target: target,
	}, 16, ring(16))
	if eng.Removed() != 3 {
		t.Fatalf("removed %d, want 3", eng.Removed())
	}
	for _, want := range []int{4, 5, 6} {
		if pop.alive[want] {
			t.Fatalf("vertex %d (XOR-closest to target) still alive; victims %+v", want, eng.Victims())
		}
	}
}

func TestCutsetTargetsBottleneck(t *testing.T) {
	// Barbell: two 5-cliques joined through vertex 10. The minimum vertex
	// cut is {10}; the cutset adversary must kill it first.
	var edges [][2]int
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			edges = append(edges, [2]int{a, b}, [2]int{a + 5, b + 5})
		}
	}
	edges = append(edges, [2]int{0, 10}, [2]int{5, 10})
	eng, pop := runAttack(t, 1, Config{
		Strategy: Cutset, Budget: 1, Kills: 1, Interval: time.Minute,
		SampleFraction: 1.0,
	}, 11, edges)
	if eng.Removed() != 1 || pop.alive[10] {
		t.Fatalf("cutset attack removed %+v, want the bridge vertex 10", eng.Victims())
	}
}

func TestCutsetFallsBackOnDegreeWhenNoCut(t *testing.T) {
	// Complete graph: no vertex cut exists; the strategy degrades to the
	// degree attack instead of stalling.
	var edges [][2]int
	for a := 0; a < 6; a++ {
		for b := a + 1; b < 6; b++ {
			edges = append(edges, [2]int{a, b})
		}
	}
	eng, _ := runAttack(t, 1, Config{
		Strategy: Cutset, Budget: 2, Kills: 1, Interval: time.Minute, SampleFraction: 1.0,
	}, 6, edges)
	if eng.Removed() != 2 {
		t.Fatalf("removed %d, want 2 (degree fallback)", eng.Removed())
	}
}

func TestCutsetReusesAnalysisEngine(t *testing.T) {
	// Many strikes against a shrinking ring: every strike binds a fresh
	// capture and runs a full GraphCut on the one persistent connectivity
	// engine, which keeps its scratch across strikes.
	eng, pop := runAttack(t, 1, Config{
		Strategy: Cutset, Budget: 8, Kills: 1, Interval: time.Minute, SampleFraction: 1.0,
	}, 16, ring(16))
	if eng.Removed() != 8 {
		t.Fatalf("removed %d nodes, want the full budget 8 (live %d)", eng.Removed(), pop.liveCount())
	}
	if eng.Strikes() < 8 {
		t.Fatalf("only %d strikes executed", eng.Strikes())
	}
	if eng.conn == nil {
		t.Fatal("cutset engine must hold a persistent connectivity engine")
	}
}

func TestNonCutsetStrategiesSkipAnalysisEngine(t *testing.T) {
	for _, strat := range []Strategy{Random, Degree, Eclipse} {
		eng, _ := runAttack(t, 1, Config{
			Strategy: strat, Budget: 2, Kills: 1, Interval: time.Minute,
		}, 12, ring(12))
		if eng.conn != nil {
			t.Fatalf("strategy %s needlessly built a connectivity engine", strat)
		}
	}
}
