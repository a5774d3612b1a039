package connectivity

import (
	"math/rand"
	"testing"

	"kadre/internal/graph"
)

// bruteLexMinPair finds the lexicographically smallest minimizing
// (source, target) pair over the given sources with exact, sequential flow
// computations — the reference MinPair definition.
func bruteLexMinPair(t *testing.T, g *graph.Digraph, sources []int) (int, [2]int) {
	t.Helper()
	n := g.N()
	inSources := make([]bool, n)
	for _, s := range sources {
		inSources[s] = true
	}
	min := n
	pair := [2]int{-1, -1}
	for src := 0; src < n; src++ {
		if !inSources[src] {
			continue
		}
		for tgt := 0; tgt < n; tgt++ {
			if tgt == src || g.HasEdge(src, tgt) {
				continue
			}
			flow, err := Pair(g, src, tgt)
			if err != nil {
				t.Fatal(err)
			}
			if flow < min {
				min = flow
				pair = [2]int{src, tgt}
			}
		}
	}
	return min, pair
}

// TestMinOnlyMinPairDeterministicAndCorrect is the regression test for the
// ROADMAP bug: under MinOnly pruning with multiple workers, MinPair used to
// depend on worker scheduling (and could even name a pair whose true
// connectivity exceeds Min, because capped evaluations hide the
// difference). It must now always be the lexicographically smallest
// minimizing pair, for every worker count, on every repetition.
func TestMinOnlyMinPairDeterministicAndCorrect(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		g := randomSymmetricGraph(seed, 26, 130)
		all := make([]int, g.N())
		for i := range all {
			all[i] = i
		}
		wantMin, wantPair := bruteLexMinPair(t, g, all)
		if wantPair[0] < 0 {
			t.Fatalf("seed %d: test graph has no evaluable pair", seed)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			for rep := 0; rep < 5; rep++ {
				res := analyze(g, EngineOptions{Workers: workers}, Query{SampleFraction: 1.0, MinOnly: true})
				if res.Min != wantMin {
					t.Fatalf("seed %d workers %d rep %d: Min %d != brute %d",
						seed, workers, rep, res.Min, wantMin)
				}
				if res.MinPair != wantPair {
					t.Fatalf("seed %d workers %d rep %d: MinPair %v != lex-smallest minimizing pair %v",
						seed, workers, rep, res.MinPair, wantPair)
				}
			}
		}
	}
}

// TestMinOnlyMinPairSampledSources pins the same property on the paper's
// smallest-out-degree sampled sweep: the pair must be the lex-smallest
// minimizer among the sampled sources' pairs, not the whole graph's.
func TestMinOnlyMinPairSampledSources(t *testing.T) {
	for seed := int64(20); seed <= 25; seed++ {
		g := randomSymmetricGraph(seed, 40, 280)
		eng := MustNewEngine(EngineOptions{Workers: 1})
		eng.Bind(g)
		sources := append([]int(nil), eng.pickSources(0.1)...)
		wantMin, wantPair := bruteLexMinPair(t, g, sources)
		for _, workers := range []int{1, 3, 8} {
			res := analyze(g, EngineOptions{Workers: workers}, Query{SampleFraction: 0.1, MinOnly: true})
			if res.Min != wantMin || res.MinPair != wantPair {
				t.Fatalf("seed %d workers %d: got (min=%d, pair=%v), want (min=%d, pair=%v)",
					seed, workers, res.Min, res.MinPair, wantMin, wantPair)
			}
		}
	}
}

// TestMinPairConnectivityMatchesMin guards against the capped-evaluation
// bug specifically: the returned MinPair's exact connectivity must equal
// Min (not merely be >= the cap used during pruning).
func TestMinPairConnectivityMatchesMin(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		n := 14 + rng.Intn(16)
		g := randomDigraph(rng.Int63(), n, n*4)
		res := analyze(g, EngineOptions{Workers: 6}, Query{SampleFraction: 1.0, MinOnly: true})
		if res.MinPair[0] < 0 {
			continue
		}
		flow, err := Pair(g, res.MinPair[0], res.MinPair[1])
		if err != nil {
			t.Fatal(err)
		}
		if flow != res.Min {
			t.Fatalf("trial %d: MinPair %v has kappa %d, but Min = %d",
				trial, res.MinPair, flow, res.Min)
		}
	}
}
