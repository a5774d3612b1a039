package kadre_test

import (
	"fmt"
	"time"

	"kadre"
)

// ExampleVertexConnectivity computes kappa(D) of a small ring: removing
// any single vertex leaves a path, removing the two neighbours of a
// vertex isolates it.
func ExampleVertexConnectivity() {
	g := kadre.NewGraph(6)
	for i := 0; i < 6; i++ {
		g.AddEdge(i, (i+1)%6)
		g.AddEdge((i+1)%6, i)
	}
	kappa := kadre.VertexConnectivity(g)
	fmt.Println("kappa:", kappa)
	fmt.Println("resilience:", kadre.Resilience(kappa))
	// Output:
	// kappa: 2
	// resilience: 1
}

// ExamplePairConnectivity shows Menger's theorem in action: the number of
// vertex-disjoint paths between two non-adjacent vertices.
func ExamplePairConnectivity() {
	// Two vertex-disjoint paths from 0 to 3: 0-1-3 and 0-2-3.
	g := kadre.NewGraph(4)
	for _, e := range [][2]int{{0, 1}, {1, 3}, {0, 2}, {2, 3}} {
		g.AddEdge(e[0], e[1])
		g.AddEdge(e[1], e[0])
	}
	kappa, err := kadre.PairConnectivity(g, 0, 3)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("disjoint paths:", kappa)
	// Output:
	// disjoint paths: 2
}

// ExampleGraphCut finds the optimal attack: the smallest node set whose
// compromise partitions the network.
func ExampleGraphCut() {
	// A barbell: two triangles joined through vertex 2.
	g := kadre.NewGraph(5)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {2, 4}, {3, 4}} {
		g.AddEdge(e[0], e[1])
		g.AddEdge(e[1], e[0])
	}
	cut, _, ok, err := kadre.GraphCut(g, kadre.ConnectivityQuery{SampleFraction: 1.0})
	if err != nil || !ok {
		fmt.Println("no cut:", err)
		return
	}
	fmt.Println("cut:", cut)
	// Output:
	// cut: [2]
}

// ExampleRunScenario runs a miniature version of the paper's simulation
// loop and prints the final network state.
func ExampleRunScenario() {
	res, err := kadre.RunScenario(kadre.ScenarioConfig{
		Name: "example", Seed: 1, Size: 25, K: 4,
		Setup: 10 * time.Minute, Stabilize: 10 * time.Minute,
		SnapshotInterval: 20 * time.Minute, SampleFraction: 0.2,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	last := res.Points[len(res.Points)-1]
	fmt.Println("nodes:", last.N)
	fmt.Println("min connectivity positive:", last.Min > 0)
	// Output:
	// nodes: 25
	// min connectivity positive: true
}
