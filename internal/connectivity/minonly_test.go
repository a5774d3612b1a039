package connectivity

import (
	"math/rand"
	"testing"

	"kadre/internal/graph"
)

func randomDigraph(seed int64, n, m int) *graph.Digraph {
	r := rand.New(rand.NewSource(seed))
	g := graph.NewDigraph(n)
	for i := 0; i < m; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v)
		}
	}
	return g
}

// TestMinOnlyMatchesFullMin is the property behind the paper's pruning
// optimization: capping flow computations at the running global minimum
// (MinOnly) must never change the reported minimum, only skip work above
// it. The shared running-limit path crosses workers, so the property is
// checked for several worker counts, including under the race detector.
func TestMinOnlyMatchesFullMin(t *testing.T) {
	type shape struct{ n, m int }
	shapes := []shape{{12, 40}, {20, 90}, {28, 150}, {36, 360}}
	for seed := int64(1); seed <= 6; seed++ {
		for _, sh := range shapes {
			graphs := []*graph.Digraph{
				randomDigraph(seed, sh.n, sh.m),
				randomSymmetricGraph(seed, sh.n, sh.m),
			}
			for gi, g := range graphs {
				full := analyze(g, EngineOptions{}, Query{SampleFraction: 1.0})
				for _, workers := range []int{1, 2, 8} {
					pruned := analyze(g, EngineOptions{Workers: workers}, Query{SampleFraction: 1.0, MinOnly: true})
					if pruned.Min != full.Min {
						t.Fatalf("seed %d graph %d n=%d m=%d workers=%d: MinOnly min %d != full min %d",
							seed, gi, sh.n, sh.m, workers, pruned.Min, full.Min)
					}
					if pruned.Pairs != full.Pairs {
						t.Fatalf("seed %d graph %d: MinOnly evaluated %d pairs, full %d — same non-adjacent pairs expected",
							seed, gi, pruned.Pairs, full.Pairs)
					}
				}
			}
		}
	}
}

// TestMinOnlySampledMatchesFullMinOnSample checks the same property on the
// paper's smallest-out-degree sampled sweep: both modes use the identical
// deterministic source set, so the pruned minimum must equal the unpruned
// minimum over that sample.
func TestMinOnlySampledMatchesFullMinOnSample(t *testing.T) {
	for seed := int64(10); seed <= 15; seed++ {
		g := randomSymmetricGraph(seed, 50, 400)
		plain := analyze(g, EngineOptions{}, Query{SampleFraction: 0.1})
		for _, workers := range []int{1, 4} {
			pruned := analyze(g, EngineOptions{Workers: workers}, Query{SampleFraction: 0.1, MinOnly: true})
			if pruned.Min != plain.Min {
				t.Fatalf("seed %d workers %d: sampled MinOnly min %d != plain sampled min %d",
					seed, workers, pruned.Min, plain.Min)
			}
		}
	}
}

// TestMinOnlyDeterministicAcrossWorkers pins the scheduling-independence
// of the pruning path itself: any worker count must report the same Min.
func TestMinOnlyDeterministicAcrossWorkers(t *testing.T) {
	g := randomSymmetricGraph(99, 40, 260)
	base := analyze(g, EngineOptions{Workers: 1}, Query{SampleFraction: 1.0, MinOnly: true})
	for workers := 2; workers <= 8; workers++ {
		got := analyze(g, EngineOptions{Workers: workers}, Query{SampleFraction: 1.0, MinOnly: true})
		if got.Min != base.Min {
			t.Fatalf("workers=%d: Min %d != workers=1 Min %d", workers, got.Min, base.Min)
		}
	}
}
