package connectivity_test

import (
	"fmt"

	"kadre/internal/connectivity"
	"kadre/internal/graph"
)

// ExampleEngine_Analyze computes kappa(D) of a small ring: removing any
// single vertex leaves a path, removing the two neighbours of a vertex
// isolates it.
func ExampleEngine_Analyze() {
	g := graph.NewDigraph(6)
	for i := 0; i < 6; i++ {
		g.AddEdge(i, (i+1)%6)
		g.AddEdge((i+1)%6, i)
	}
	eng := connectivity.MustNewEngine(connectivity.EngineOptions{})
	eng.Bind(g)
	kappa := eng.Analyze(connectivity.Query{SampleFraction: 1, MinOnly: true}).Min
	fmt.Println("kappa:", kappa)
	fmt.Println("resilience:", connectivity.Resilience(kappa))
	// Output:
	// kappa: 2
	// resilience: 1
}

// ExamplePair shows Menger's theorem in action: the number of
// vertex-disjoint paths between two non-adjacent vertices.
func ExamplePair() {
	// Two vertex-disjoint paths from 0 to 3: 0-1-3 and 0-2-3.
	g := graph.NewDigraph(4)
	for _, e := range [][2]int{{0, 1}, {1, 3}, {0, 2}, {2, 3}} {
		g.AddEdge(e[0], e[1])
		g.AddEdge(e[1], e[0])
	}
	kappa, err := connectivity.Pair(g, 0, 3)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("disjoint paths:", kappa)
	// Output:
	// disjoint paths: 2
}

// ExampleEngine_GraphCut finds the optimal attack: the smallest node set
// whose compromise partitions the network.
func ExampleEngine_GraphCut() {
	// A barbell: two triangles joined through vertex 2.
	g := graph.NewDigraph(5)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {2, 4}, {3, 4}} {
		g.AddEdge(e[0], e[1])
		g.AddEdge(e[1], e[0])
	}
	eng := connectivity.MustNewEngine(connectivity.EngineOptions{})
	eng.Bind(g)
	cut, _, ok, err := eng.GraphCut(connectivity.Query{SampleFraction: 1})
	if err != nil || !ok {
		fmt.Println("no cut:", err)
		return
	}
	fmt.Println("cut:", cut)
	// Output:
	// cut: [2]
}
