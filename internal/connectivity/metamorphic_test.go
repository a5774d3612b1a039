package connectivity

import (
	"math/rand"
	"testing"

	"kadre/internal/graph"
)

// Metamorphic properties of the engine: relations between the answers to
// related inputs that hold whatever the true connectivity is, so they need
// no second solver as an oracle. Each runs the default engine (Hao–Orlin
// sweeps) in full sweeps.

// forMetamorphicGraphs calls f on 12 random graphs of 8 to 19 vertices and
// three edges a vertex, alternately directed and symmetric.
func forMetamorphicGraphs(seed int64, f func(trial int, g *graph.Digraph)) {
	for trial := 0; trial < 12; trial++ {
		n := 8 + trial
		if trial%2 == 0 {
			f(trial, randomDigraph(seed+int64(trial), n, 3*n))
		} else {
			f(trial, randomSymmetricGraph(seed+int64(trial), n, 3*n/2))
		}
	}
}

// TestKappaBoundedByEndpointDegrees: every path from s leaves through one
// of its out-neighbours and enters t through one of its in-neighbours, so
// kappa(s, t) <= min(outdeg s, indeg t) for every non-adjacent pair, and
// the sweep's minimum obeys the bound at the pair it reports.
func TestKappaBoundedByEndpointDegrees(t *testing.T) {
	forMetamorphicGraphs(101, func(trial int, g *graph.Digraph) {
		in := g.InDegrees()
		for s := 0; s < g.N(); s++ {
			for tgt := 0; tgt < g.N(); tgt++ {
				if s == tgt || g.HasEdge(s, tgt) {
					continue
				}
				kappa, err := Pair(g, s, tgt)
				if err != nil {
					t.Fatal(err)
				}
				if bound := min(g.OutDegree(s), in[tgt]); kappa > bound {
					t.Fatalf("trial %d: kappa(%d,%d) = %d exceeds min(outdeg, indeg) = %d", trial, s, tgt, kappa, bound)
				}
			}
		}
		res := fullSweep(g)
		if res.Complete {
			return
		}
		if s, tgt := res.MinPair[0], res.MinPair[1]; res.Min > min(g.OutDegree(s), in[tgt]) {
			t.Fatalf("trial %d: Min %d at pair (%d,%d) exceeds its degree bound", trial, res.Min, s, tgt)
		}
	})
}

// TestRelabellingInvariance: renaming the vertices permutes the pairs of a
// full sweep but not the multiset of their connectivities, so Min, Avg and
// Pairs are unchanged — although every arc list the solver scans is in a
// different order.
func TestRelabellingInvariance(t *testing.T) {
	forMetamorphicGraphs(102, func(trial int, g *graph.Digraph) {
		perm := rand.New(rand.NewSource(int64(trial))).Perm(g.N())
		renamed := graph.NewDigraph(g.N())
		for _, e := range g.Edges() {
			renamed.AddEdge(perm[e.U], perm[e.V])
		}
		a, b := fullSweep(g), fullSweep(renamed)
		if a.Min != b.Min || a.Avg != b.Avg || a.Pairs != b.Pairs {
			t.Fatalf("trial %d: relabelled sweep differs: Min %d/%d Avg %v/%v Pairs %d/%d",
				trial, a.Min, b.Min, a.Avg, b.Avg, a.Pairs, b.Pairs)
		}
	})
}

// TestVertexRemovalLowersKappaByAtMostOne: a vertex cut of D-x plus x is a
// vertex cut of D, so kappa(D-x) >= kappa(D) - 1 for every x.
func TestVertexRemovalLowersKappaByAtMostOne(t *testing.T) {
	forMetamorphicGraphs(103, func(trial int, g *graph.Digraph) {
		whole := fullSweep(g).Min
		for x := 0; x < g.N(); x++ {
			rest, _ := RemoveVertices(g, []int{x})
			if got := fullSweep(rest).Min; got < whole-1 {
				t.Fatalf("trial %d: removing vertex %d drops kappa from %d to %d", trial, x, whole, got)
			}
		}
	})
}

// TestMinAtMostAvgOnFullSweeps: at sample fraction 1 the fused analysis
// takes Min and Avg over the same pairs, so Min <= Avg. Only there: below
// 1, Min sweeps the smallest-out-degree sources and Avg a uniform draw,
// and a draw can hold a pair below the sampled minimum (bench/README.md
// records a seed on which it does).
func TestMinAtMostAvgOnFullSweeps(t *testing.T) {
	eng := MustNewEngine(EngineOptions{})
	forMetamorphicGraphs(104, func(trial int, g *graph.Digraph) {
		eng.Bind(g)
		res := eng.AnalyzeSnapshot(SnapshotQuery{SampleFraction: 1, AvgSeed: int64(trial)})
		if res.Min.Pairs != res.Avg.Pairs {
			t.Fatalf("trial %d: full sweeps cover %d and %d pairs", trial, res.Min.Pairs, res.Avg.Pairs)
		}
		if float64(res.Min.Min) > res.Avg.Avg {
			t.Fatalf("trial %d: Min %d above Avg %v on a full sweep", trial, res.Min.Min, res.Avg.Avg)
		}
	})
}
