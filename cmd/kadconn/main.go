// Command kadconn computes the vertex connectivity of a persisted
// connectivity graph, playing the role of the paper's offline analysis of
// routing-table snapshots: it reads one snapshot as kadsim -snapshots
// writes it, applies Even's vertex-splitting transformation, and reports
// kappa. -emit-dimacs is the hand-off to an external HIPR-style solver:
// it writes the Even-transformed graph as a DIMACS max-flow problem.
//
// Examples:
//
//	kadconn -in out/snapshot-000120m.json
//	kadconn -in out/snapshot-000120m.json -c 1
//	kadconn -in out/snapshot-000120m.json -emit-dimacs transformed.dimacs
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"kadre/internal/connectivity"
	"kadre/internal/graph"
	"kadre/internal/snapshot"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kadconn:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("kadconn", flag.ContinueOnError)
	var (
		in       = fs.String("in", "", "snapshot JSON file written by kadsim -snapshots (required)")
		sampleC  = fs.Float64("c", connectivity.DefaultSampleFraction, "sampling fraction c (0 or 1 = full n(n-1) sweep)")
		workers  = fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		pairSpec = fs.String("pair", "", "compute kappa(v,w) for one pair, e.g. 3,17")
		emit     = fs.String("emit-dimacs", "", "write the Even-transformed graph as DIMACS to this file and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	if err := connectivity.CheckSampleFraction(*sampleC); err != nil {
		return err
	}

	g, err := load(*in)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "graph: %d vertices, %d edges, symmetry %.3f\n", g.N(), g.M(), g.SymmetryRatio())

	if *emit != "" {
		return emitDIMACS(stdout, *emit, g)
	}

	if *pairSpec != "" {
		// Exactly two integers and nothing after them.
		vs, ws, _ := strings.Cut(*pairSpec, ",")
		v, errV := strconv.Atoi(vs)
		w, errW := strconv.Atoi(ws)
		if errV != nil || errW != nil {
			return fmt.Errorf("bad -pair %q: want two integers v,w", *pairSpec)
		}
		kappa, err := connectivity.Pair(g, v, w)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "kappa(%d,%d) = %d  (node-disjoint paths; tolerates %d compromised nodes on this pair)\n",
			v, w, kappa, connectivity.Resilience(kappa))
		return nil
	}

	eng := connectivity.MustNewEngine(connectivity.EngineOptions{Workers: *workers})
	eng.Bind(g)
	res := eng.Analyze(connectivity.Query{SampleFraction: *sampleC})
	fmt.Fprintf(stdout, "kappa(D) = %d over %d pairs from %d sources (avg pair connectivity %.2f)\n",
		res.Min, res.Pairs, res.Sources, res.Avg)
	if res.Complete {
		fmt.Fprintln(stdout, "graph is complete: kappa = n-1 by definition")
	}
	if res.MinPair[0] >= 0 {
		fmt.Fprintf(stdout, "weakest pair: %d -> %d\n", res.MinPair[0], res.MinPair[1])
	}
	fmt.Fprintf(stdout, "resilience r = %d (Equation 2: kappa > r >= a)\n", connectivity.Resilience(res.Min))
	return nil
}

func load(path string) (*graph.Digraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := snapshot.ReadJSON(f)
	if err != nil {
		return nil, err
	}
	return s.Graph, nil
}

func emitDIMACS(stdout io.Writer, path string, g *graph.Digraph) error {
	// A max-flow problem needs a source and a sink that are not adjacent.
	if g.IsComplete() {
		return fmt.Errorf("-emit-dimacs: graph is complete (kappa = n-1 by definition): no non-adjacent pair to pose as a max-flow problem")
	}
	// Emit with one example pair (first non-adjacent ordered pair) so the
	// file is a complete max-flow problem; downstream tooling can swap in
	// other "c pair" lines.
	var pairs [][2]int
	for v := 0; v < g.N() && len(pairs) == 0; v++ {
		for w := 0; w < g.N(); w++ {
			if v != w && !g.HasEdge(v, w) {
				pairs = append(pairs, [2]int{graph.Out(v), graph.In(w)})
				break
			}
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := graph.WriteEvenDIMACS(f, g, pairs...); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote Even-transformed graph (%d vertices, %d edges) to %s\n",
		2*g.N(), g.M()+g.N(), path)
	return nil
}
