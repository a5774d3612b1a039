package connectivity

import (
	"math"
	"math/rand"
	"testing"

	"kadre/internal/graph"
	"kadre/internal/maxflow"
)

// sameResult compares engine and reference results, treating the NaN Avg
// of MinOnly analyses as equal.
func sameResult(a, b Result) bool {
	if a.N != b.N || a.Min != b.Min || a.Pairs != b.Pairs || a.Sources != b.Sources ||
		a.Complete != b.Complete || a.MinPair != b.MinPair {
		return false
	}
	if math.IsNaN(a.Avg) || math.IsNaN(b.Avg) {
		return math.IsNaN(a.Avg) && math.IsNaN(b.Avg)
	}
	return a.Avg == b.Avg
}

// engineAnswer asks eng the question opt puts to the reference: Analyze
// for the smallest-out-degree sources, AnalyzeSnapshot's Avg for the
// uniform ones.
func engineAnswer(eng *Engine, opt referenceOptions) Result {
	if opt.Uniform {
		return eng.AnalyzeSnapshot(SnapshotQuery{SampleFraction: opt.SampleFraction, AvgSeed: opt.Seed}).Avg
	}
	return eng.Analyze(opt.Query)
}

// TestEngineMatchesReference is the equivalence property test: on random
// digraphs, the engine's Hao–Orlin sweeps must reproduce the pre-engine
// Dinic sweep (kept verbatim in engine_reference_test.go) across the
// whole query grid — full and sampled smallest-out-degree sources with
// and without MinOnly pruning, uniform Avg sources — at several worker
// counts, on a fresh bind and when rebound repeatedly (the per-snapshot
// reuse pattern).
func TestEngineMatchesReference(t *testing.T) {
	graphs := []*graph.Digraph{
		randomDigraph(11, 18, 60),
		randomDigraph(12, 25, 140),
		randomSymmetricGraph(13, 30, 170),
		randomDigraph(14, 9, 12), // sparse: disconnected pairs, kappa 0
	}
	for gi, g := range graphs {
		for _, opt := range []referenceOptions{
			{Query: Query{SampleFraction: 1.0}},
			{Query: Query{SampleFraction: 1.0, MinOnly: true}},
			{Query: Query{SampleFraction: 0.1, MinOnly: true}},
			{Query: Query{SampleFraction: 0.2}},
			{Query: Query{SampleFraction: 0.15}, Uniform: true, Seed: 5},
			{Query: Query{SampleFraction: 0.15}, Uniform: true, Seed: 6},
		} {
			want := referenceAnalyze(opt, g)
			for _, workers := range []int{1, 3, 8} {
				eng := MustNewEngine(EngineOptions{Workers: workers})
				for rep := 0; rep < 3; rep++ {
					eng.Bind(g)
					if got := engineAnswer(eng, opt); !sameResult(got, want) {
						t.Fatalf("graph %d opts %+v workers %d bind %d: engine %+v != reference %+v",
							gi, opt, workers, rep, got, want)
					}
				}
			}
		}
	}
}

// TestAnalyzeSnapshotMatchesSeparateAnalyzers pins the fused sweep to
// the two analyses it replaces: a MinOnly smallest-out-degree reference
// run and an exact uniform-source reference run, per snapshot seed.
func TestAnalyzeSnapshotMatchesSeparateAnalyzers(t *testing.T) {
	eng := MustNewEngine(EngineOptions{Workers: 2})
	for seed := int64(1); seed <= 5; seed++ {
		g := randomDigraph(seed, 24, 120)
		eng.Bind(g)
		sr := eng.AnalyzeSnapshot(SnapshotQuery{SampleFraction: 0.1, AvgSeed: seed * 31})
		wantMin := referenceAnalyze(referenceOptions{
			Query: Query{SampleFraction: 0.1, MinOnly: true}, SkipMinPair: true,
		}, g)
		wantAvg := referenceAnalyze(referenceOptions{
			Query: Query{SampleFraction: 0.1}, Uniform: true, Seed: seed * 31,
		}, g)
		if !sameResult(sr.Min, wantMin) {
			t.Fatalf("seed %d: fused Min %+v != reference %+v", seed, sr.Min, wantMin)
		}
		// The fused Avg keeps its in-sweep MinPair (the runner ignores
		// it); the reference was run without SkipMinPair so both report.
		if !sameResult(sr.Avg, wantAvg) {
			t.Fatalf("seed %d: fused Avg %+v != reference %+v", seed, sr.Avg, wantAvg)
		}
	}
}

// TestFusedSweepWorkerDeterminism pins the fused sweep's determinism
// contract under the race detector: workers=1 and workers=8 must produce
// identical results on identical inputs, repeatedly.
func TestFusedSweepWorkerDeterminism(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g := randomSymmetricGraph(seed, 32, 200)
		e1 := MustNewEngine(EngineOptions{Workers: 1})
		e8 := MustNewEngine(EngineOptions{Workers: 8})
		for rep := 0; rep < 3; rep++ {
			e1.Bind(g)
			e8.Bind(g)
			q := SnapshotQuery{SampleFraction: 0.12, AvgSeed: seed + int64(rep)}
			r1 := e1.AnalyzeSnapshot(q)
			r8 := e8.AnalyzeSnapshot(q)
			if !sameResult(r1.Min, r8.Min) || !sameResult(r1.Avg, r8.Avg) {
				t.Fatalf("seed %d rep %d: jobs=1 %+v/%+v != jobs=8 %+v/%+v",
					seed, rep, r1.Min, r1.Avg, r8.Min, r8.Avg)
			}
			gq := Query{SampleFraction: 0.12, MinOnly: true}
			c1, p1, ok1, err1 := e1.GraphCut(gq)
			c8, p8, ok8, err8 := e8.GraphCut(gq)
			if err1 != nil || err8 != nil {
				t.Fatal(err1, err8)
			}
			if ok1 != ok8 || p1 != p8 || !equalInts(c1, c8) {
				t.Fatalf("seed %d rep %d: GraphCut diverged across worker counts: %v/%v vs %v/%v",
					seed, rep, c1, p1, c8, p8)
			}
		}
	}
}

// TestEngineGraphCutMatchesPackageGraphCut pins the cuts of one engine
// rebound across graphs to the per-call construction's: a fresh default
// engine bound to each graph alone.
func TestEngineGraphCutMatchesPackageGraphCut(t *testing.T) {
	eng := MustNewEngine(EngineOptions{Workers: 2})
	for seed := int64(40); seed <= 46; seed++ {
		g := randomSymmetricGraph(seed, 24, 110)
		wantCut, wantPair, wantOK, err := graphCut(g, Query{SampleFraction: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		eng.Bind(g)
		gotCut, gotPair, gotOK, err := eng.GraphCut(Query{SampleFraction: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		if gotOK != wantOK || gotPair != wantPair || !equalInts(gotCut, wantCut) {
			t.Fatalf("seed %d: engine cut %v@%v (ok=%v) != fresh engine's cut %v@%v (ok=%v)",
				seed, gotCut, gotPair, gotOK, wantCut, wantPair, wantOK)
		}
	}
}

// TestEngineSelectionPrimitives pins the zero-allocation re-implemented
// source selections to their historical counterparts: the counting sort
// to sort.SliceStable by (degree, index), and the reseeded in-place
// permutation to rand.Perm.
func TestEngineSelectionPrimitives(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g := randomDigraph(seed, 40, 260)
		eng := MustNewEngine(EngineOptions{Workers: 1})
		eng.Bind(g)
		ref := referencePickSources(referenceOptions{Query: Query{SampleFraction: 0.2}}, g)
		got := eng.pickSources(0.2)
		if !equalInts(got, ref) {
			t.Fatalf("seed %d: smallest-out-degree selection %v != reference %v", seed, got, ref)
		}
		ref = referencePickSources(referenceOptions{Query: Query{SampleFraction: 0.3}, Uniform: true, Seed: seed * 7}, g)
		got = eng.uniformSources(sampleCount(0.3, g.N()), seed*7)
		if !equalInts(got, ref) {
			t.Fatalf("seed %d: uniform selection %v != rand.Perm reference %v", seed, got, ref)
		}
	}
}

// TestEngineDegenerateGraphs covers the shortcut paths through the
// engine: empty, single-vertex, complete, and all-sources-saturated
// graphs must reproduce the reference exactly.
func TestEngineDegenerateGraphs(t *testing.T) {
	complete := graph.NewDigraph(4)
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			if u != v {
				complete.AddEdge(u, v)
			}
		}
	}
	// star: vertex 0 adjacent to everything, sampled as the only source.
	star := graph.NewDigraph(5)
	for v := 1; v < 5; v++ {
		star.AddEdge(0, v)
	}
	for _, g := range []*graph.Digraph{
		graph.NewDigraph(0), graph.NewDigraph(1), complete, star,
	} {
		eng := MustNewEngine(EngineOptions{})
		for _, opt := range []referenceOptions{
			{Query: Query{SampleFraction: 1.0, MinOnly: true}},
			{Query: Query{SampleFraction: 0.1}},
			{Query: Query{SampleFraction: 0.1}, Uniform: true, Seed: 3},
		} {
			want := referenceAnalyze(opt, g)
			eng.Bind(g)
			if got := engineAnswer(eng, opt); !sameResult(got, want) {
				t.Fatalf("n=%d options %+v: engine %+v != reference %+v", g.N(), opt, got, want)
			}
		}
		eng.Bind(g)
		sr := eng.AnalyzeSnapshot(SnapshotQuery{SampleFraction: 0.1, AvgSeed: 1})
		if g.N() > 1 && g.N() != sr.Min.N {
			t.Fatalf("snapshot result lost N: %+v", sr.Min)
		}
	}
}

// TestEnginePairCutErrors mirrors the package PairCut validation on the
// engine entry point.
func TestEnginePairCutErrors(t *testing.T) {
	g := graph.NewDigraph(3)
	g.AddEdge(0, 1)
	eng := MustNewEngine(EngineOptions{})
	eng.Bind(g)
	for _, bad := range [][2]int{{0, 0}, {-1, 1}, {0, 3}, {0, 1}} {
		if _, err := eng.PairCut(bad[0], bad[1]); err == nil {
			t.Errorf("PairCut(%d,%d) should fail", bad[0], bad[1])
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWarmStartConsistency cross-checks the sweep solver's per-source
// reuse at the connectivity level: repeated queries on the cached root
// labels of one prepared source must match fresh per-pair Dinic
// computations on random graphs.
func TestWarmStartConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 6; trial++ {
		g := randomDigraph(rng.Int63(), 20, 90)
		solver := maxflow.NewHaoOrlin(2*g.N(), referenceEvenUnitEdges(g))
		for src := 0; src < 4; src++ {
			solver.PrepareSource(graph.Out(src))
			for tgt := 0; tgt < g.N(); tgt++ {
				if tgt == src || g.HasEdge(src, tgt) {
					continue
				}
				warm := solver.MaxFlow(graph.Out(src), graph.In(tgt))
				want, err := Pair(g, src, tgt)
				if err != nil {
					t.Fatal(err)
				}
				if warm != want {
					t.Fatalf("trial %d pair (%d,%d): prepared-source flow %d != cold flow %d",
						trial, src, tgt, warm, want)
				}
			}
		}
	}
}
