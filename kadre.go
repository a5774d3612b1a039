// Package kadre ("KADemlia REsilience") reproduces Heck, Kieselmann and
// Wacker, "Evaluating Connection Resilience for the Overlay Network
// Kademlia" (ICDCS 2017): a deterministic event-driven Kademlia simulator,
// a vertex-connectivity analysis pipeline built on Even's vertex-splitting
// transformation and max-flow solvers, and a catalogue of runnable
// experiments for every figure and table in the paper's evaluation (one
// scenario spec file each under specs/, resolved by Scale.Experiments).
//
// The package is a facade over the internal subsystems. Typical use:
//
//	cfg := kadre.ScenarioConfig{
//		Name: "demo", Seed: 1, Size: 100, K: 20,
//		Traffic: true, Churn: kadre.Churn1_1,
//		ChurnPhase: 60 * time.Minute,
//	}
//	res, err := kadre.RunScenario(cfg)
//	// res.Points: per-snapshot network size, min and avg connectivity.
//
// Lower-level entry points expose the simulator, the Kademlia node, graph
// snapshots, and the connectivity analysis directly, so the building
// blocks can be recombined (e.g. analyzing externally captured
// connectivity graphs, or embedding Kademlia nodes in a custom
// simulation).
package kadre

import (
	"time"

	"kadre/internal/attack"
	"kadre/internal/churn"
	"kadre/internal/connectivity"
	"kadre/internal/eventsim"
	"kadre/internal/graph"
	"kadre/internal/id"
	"kadre/internal/kademlia"
	"kadre/internal/scenario"
	"kadre/internal/simnet"
	"kadre/internal/snapshot"
	"kadre/internal/sweep"
)

// Identifier space.
type (
	// ID is a b-bit Kademlia identifier under the XOR metric.
	ID = id.ID
)

// NewID builds an identifier from big-endian bytes.
func NewID(bits int, data []byte) (ID, error) { return id.New(bits, data) }

// HashID derives an identifier from arbitrary bytes (SHA-256 truncated).
func HashID(bits int, payload []byte) ID { return id.Hash(bits, payload) }

// ParseID decodes the hex form of an identifier.
func ParseID(bits int, s string) (ID, error) { return id.Parse(bits, s) }

// Simulation kernel and network substrate.
type (
	// Simulator is the deterministic discrete-event kernel.
	Simulator = eventsim.Simulator
	// Network is the simulated message-passing network.
	Network = simnet.Network
	// NetworkConfig sets latency and loss models.
	NetworkConfig = simnet.Config
	// Addr is a simulated network address.
	Addr = simnet.Addr
	// LossLevel names a Table 1 message-loss scenario.
	LossLevel = simnet.LossLevel
)

// Table 1 loss levels.
const (
	LossNone   = simnet.LossNone
	LossLow    = simnet.LossLow
	LossMedium = simnet.LossMedium
	LossHigh   = simnet.LossHigh
)

// NewSimulator returns a simulator seeded for reproducibility.
func NewSimulator(seed int64) *Simulator { return eventsim.New(seed) }

// NewNetwork builds a simulated network on a simulator.
func NewNetwork(sim *Simulator, cfg NetworkConfig) *Network { return simnet.New(sim, cfg) }

// Kademlia protocol.
type (
	// Node is one Kademlia participant.
	Node = kademlia.Node
	// NodeConfig carries the protocol parameters b, k, alpha, s.
	NodeConfig = kademlia.Config
)

// NewNode creates a node whose identifier is derived from its address.
func NewNode(cfg NodeConfig, addr Addr, net *Network) (*Node, error) {
	return kademlia.NewNode(cfg, addr, net)
}

// Graphs and connectivity analysis.
type (
	// Graph is a directed connectivity graph.
	Graph = graph.Digraph
	// ConnectivityQuery selects what one analysis computes: the sampling
	// fraction c of smallest-out-degree sources, and Min-only pruning.
	ConnectivityQuery = connectivity.Query
	// ConnectivityResult reports min/avg connectivity of one graph.
	ConnectivityResult = connectivity.Result
	// Snapshot is a captured connectivity graph with node metadata.
	Snapshot = snapshot.Snapshot
)

// NewGraph returns an empty directed graph on n vertices. The graph
// stores an adjacency bitset row per vertex, n²/8 bytes up front
// whatever the edge count (800 KB at n = 2 500, 5 GB at n = 200 000), so
// it cannot hold a large sparse graph.
func NewGraph(n int) *Graph { return graph.NewDigraph(n) }

// AnalyzeConnectivity computes the vertex connectivity of a graph. It
// fails only for a negative or NaN sample fraction.
func AnalyzeConnectivity(g *Graph, q ConnectivityQuery) (ConnectivityResult, error) {
	return connectivity.Analyze(g, q)
}

// VertexConnectivity computes the exact kappa(D) with a full n(n-1) sweep.
func VertexConnectivity(g *Graph) int {
	// The fraction is a valid constant, so Analyze cannot fail.
	res, _ := connectivity.Analyze(g, connectivity.Query{SampleFraction: 1.0, MinOnly: true})
	return res.Min
}

// PairConnectivity computes kappa(v, w) for one non-adjacent pair.
func PairConnectivity(g *Graph, v, w int) (int, error) {
	return connectivity.Pair(g, v, w)
}

// Resilience converts a connectivity into the number of compromised nodes
// the network tolerates: r = kappa - 1 (Equation 2 of the paper).
func Resilience(kappa int) int { return connectivity.Resilience(kappa) }

// GraphCut returns a minimum vertex cut of the whole graph and the vertex
// pair it separates; ok is false for complete graphs, which have no cut.
func GraphCut(g *Graph, q ConnectivityQuery) (cut []int, pair [2]int, ok bool, err error) {
	return connectivity.GraphCut(g, q)
}

// RemoveVertices simulates compromising nodes: it returns a copy of g with
// the given vertices deleted and an old-to-new index mapping (-1 for
// removed vertices).
func RemoveVertices(g *Graph, remove []int) (*Graph, []int) {
	return connectivity.RemoveVertices(g, remove)
}

// RequiredConnectivity returns the kappa needed to tolerate a attackers.
func RequiredConnectivity(a int) int { return connectivity.RequiredConnectivity(a) }

// CaptureSnapshot builds the connectivity graph of the live nodes at the
// given virtual time.
func CaptureSnapshot(now time.Duration, nodes []*Node) *Snapshot {
	return snapshot.Capture(now, nodes)
}

// Scenario running (the paper's experiments).
type (
	// ScenarioConfig describes one simulation run.
	ScenarioConfig = scenario.Config
	// ScenarioResult is a run's measurement series.
	ScenarioResult = scenario.Result
	// SnapshotStat is one measurement point of a run.
	SnapshotStat = scenario.SnapshotStat
	// Experiment bundles the runs behind one paper figure or table.
	Experiment = scenario.Experiment
	// Scale maps experiments onto a compute budget (paper, reduced, tiny).
	Scale = scenario.Scale
)

// The paper's churn scenarios.
var (
	Churn0_1   = churn.Rate0_1
	Churn1_1   = churn.Rate1_1
	Churn10_10 = churn.Rate10_10
)

// Adversarial node removal (the attack engine extending the paper's
// random churn to targeted strategies).
type (
	// AttackConfig describes one adversary: strategy, budget, strike
	// interval, and the eclipse target. Set ScenarioConfig.Attack to run
	// it during the churn-phase window.
	AttackConfig = attack.Config
	// AttackStrategy names a victim-selection policy.
	AttackStrategy = attack.Strategy
)

// The built-in attack strategies.
const (
	AttackRandom  = attack.Random
	AttackDegree  = attack.Degree
	AttackCutset  = attack.Cutset
	AttackEclipse = attack.Eclipse
)

// AttackStrategies returns every built-in strategy in canonical order.
func AttackStrategies() []AttackStrategy { return attack.Strategies() }

// ParseAttackStrategies reads a comma-separated strategy list.
func ParseAttackStrategies(csv string) ([]AttackStrategy, error) {
	return attack.ParseStrategies(csv)
}

// Built-in experiment scales.
var (
	PaperScale = scenario.PaperScale
	TinyScale  = scenario.TinyScale
)

// RunScenario executes one simulation and returns its measurements.
func RunScenario(cfg ScenarioConfig) (*ScenarioResult, error) { return scenario.Run(cfg) }

// RunExperiment executes every run of an experiment once, across at most
// jobs workers (<= 0 means GOMAXPROCS), and returns the results in config
// order. Each run is deterministic in its own seed, so the results match
// a sequential execution. Config callbacks (Log, OnSnapshot) may be
// invoked concurrently from different runs unless jobs is 1.
func RunExperiment(e Experiment, jobs int) ([]*ScenarioResult, error) {
	sets, err := sweep.Run(e.Configs, sweep.Options{Jobs: jobs})
	if err != nil {
		return nil, err
	}
	out := make([]*ScenarioResult, len(sets))
	for i, rs := range sets {
		out[i] = rs.Reps[0]
	}
	return out, nil
}

// ScaleByName resolves "paper", "reduced", or "tiny".
func ScaleByName(name string) (Scale, error) { return scenario.ScaleByName(name) }
