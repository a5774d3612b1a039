// Package connectivity computes the vertex connectivity of directed
// connectivity graphs — the paper's central measurement. The vertex
// connectivity kappa(v, w) between non-adjacent vertices equals the
// maximum number of pairwise vertex-disjoint paths from v to w (Menger's
// theorem); it is computed as a maximum flow on Even's transformed graph.
// The graph connectivity kappa(D) is the minimum over all non-adjacent
// ordered pairs (Equation 1 of the paper), and the network tolerates
// r = kappa(D) - 1 compromised nodes (Equation 2).
//
// A full sweep needs n(n-1) flow computations. The paper's §5.2 heuristic
// cuts this to c*n*(n-1) by evaluating only the c*n sources with smallest
// out-degree (c = 0.02 was empirically sufficient on near-undirected
// Kademlia graphs); its Avg curves sample c*n sources uniformly.
//
// Engine is the one implementation, with one way to answer each
// question: Analyze gives Min over the smallest-out-degree sources,
// AnalyzeSnapshot adds the uniform-source Avg, and GraphCut cuts at the
// Min pair. Sweeping workloads hold an Engine:
// it binds to a graph, keeps the Even transform, the per-worker solvers
// and the cut-mode network alive across bindings, rebinds stable-slot
// captures incrementally (IncrementalBinder), and fuses the per-snapshot
// Min and Avg sweeps into a single pass. One-off callers use the
// package-level Analyze and GraphCut, each of which binds a throwaway
// Engine to its argument graph.
package connectivity

import (
	"fmt"
	"math"

	"kadre/internal/graph"
	"kadre/internal/maxflow"
)

// DefaultSampleFraction is the paper's empirically validated sampling
// fraction c.
const DefaultSampleFraction = 0.02

// Result reports the connectivity of one graph.
type Result struct {
	N        int     // vertices in the analyzed graph
	Min      int     // kappa(D): minimum kappa(v,w) over evaluated pairs
	Avg      float64 // mean kappa(v,w) over evaluated pairs (NaN if MinOnly)
	Pairs    int     // number of (source, target) pairs evaluated
	Sources  int     // number of source vertices used
	Complete bool    // graph was complete: Min = N-1 by definition
	// MinPair is the lexicographically smallest evaluated (source, target)
	// pair achieving Min, or {-1, -1} if no pair was evaluated or the
	// result is AnalyzeSnapshot's Min. It is deterministic for a given
	// graph and query — independent of worker count and scheduling, with
	// or without MinOnly pruning.
	MinPair [2]int
}

// Resilience returns r = kappa - 1, the number of compromised nodes the
// network provably tolerates (Equation 2). A disconnected network has
// resilience -1: it does not even function with zero compromised nodes.
func Resilience(kappa int) int { return kappa - 1 }

// RequiredConnectivity returns the connectivity a network needs to
// tolerate a compromised nodes: kappa(D) > a, i.e. at least a+1.
func RequiredConnectivity(a int) int { return a + 1 }

// CheckSampleFraction rejects the sample fractions no sweep can honour:
// negative and NaN values of the paper's c. It is the one input check of
// the one-shot entry points (Analyze, GraphCut) and of the front ends
// that take c from outside the program.
func CheckSampleFraction(c float64) error {
	if c < 0 || math.IsNaN(c) {
		return fmt.Errorf("connectivity: sample fraction %v must be >= 0", c)
	}
	return nil
}

// Analyze computes the connectivity of g in the throwaway-per-call form:
// a default Engine (GOMAXPROCS workers) bound to g for this one query.
// Callers analyzing a sequence of graphs, or choosing the worker count,
// hold an Engine instead.
func Analyze(g *graph.Digraph, q Query) (Result, error) {
	eng, err := oneShot(g, q)
	if err != nil {
		return Result{}, err
	}
	return eng.Analyze(q), nil
}

// oneShot validates q and returns a throwaway default engine bound to g.
func oneShot(g *graph.Digraph, q Query) (*Engine, error) {
	if err := CheckSampleFraction(q.SampleFraction); err != nil {
		return nil, err
	}
	eng := MustNewEngine(EngineOptions{})
	eng.Bind(g)
	return eng, nil
}

// Pair computes kappa(v, w) for one non-adjacent ordered pair via a
// Dinic maximum flow on the Even-transformed graph. It fails for v == w
// and for adjacent pairs, whose vertex connectivity is not defined by a
// vertex cut (the direct edge can never be cut).
func Pair(g *graph.Digraph, v, w int) (int, error) {
	if v == w {
		return 0, fmt.Errorf("connectivity: pair (%d,%d) has identical endpoints", v, w)
	}
	if v < 0 || v >= g.N() || w < 0 || w >= g.N() {
		return 0, fmt.Errorf("connectivity: pair (%d,%d) out of range [0,%d)", v, w, g.N())
	}
	if g.HasEdge(v, w) {
		return 0, fmt.Errorf("connectivity: vertices %d and %d are adjacent", v, w)
	}
	solver := maxflow.NewDinicSource(2*g.N(), &unitEdgeSource{edges: graph.EvenEdges(g)})
	return solver.MaxFlow(graph.Out(v), graph.In(w)), nil
}

func lexLess(a, b [2]int) bool {
	if b[0] < 0 {
		return true
	}
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}
