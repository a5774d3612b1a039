package connectivity

import (
	"math/rand"
	"slices"
	"testing"

	"kadre/internal/graph"
)

// sameSnapshot compares two fused analyses field for field, NaN-aware.
func sameSnapshot(a, b SnapshotResult) bool {
	return sameResult(a.Min, b.Min) && sameResult(a.Avg, b.Avg)
}

// freshSnapshot is the memo-free answer: a new engine, bound once and
// asked once.
func freshSnapshot(g *graph.Digraph, workers int, q SnapshotQuery) SnapshotResult {
	eng := MustNewEngine(EngineOptions{Workers: workers})
	eng.Bind(g)
	return eng.AnalyzeSnapshot(q)
}

// memoFracs mixes sampled fractions with the two spellings of a full
// sweep, so resamples share some source counts and not others.
var memoFracs = []float64{0.1, 0.25, 0.5, 0, 1}

// released fails the test unless eng holds no arc store.
func released(t *testing.T, eng *Engine) {
	t.Helper()
	if arcs, max := eng.MemoryStats().Arcs, eng.MaxSolverArcs(); arcs != 0 || max != 0 {
		t.Fatalf("released engine still holds arcs: MemoryStats %d, MaxSolverArcs %d", arcs, max)
	}
}

// TestSnapshotMemoMatchesFreshEngine is the memo's equivalence property:
// on an evolving slot population, one engine takes every binding style in
// turn — a dense Bind, a BindSlots, a RebindSlots onto the slot graph
// bound just before — and between bindings answers a run of
// AnalyzeSnapshot calls whose fractions and seeds repeat and overlap.
// Every answer must equal a fresh engine's, at Workers 1 and 4, and some
// answers must have come from the memo alone. The released variant drops
// the engine's solvers before every query and before every RebindSlots:
// the answers must not move, a RebindSlots after a release must add no
// fallback, and a query repeated after a release must sweep nothing.
func TestSnapshotMemoMatchesFreshEngine(t *testing.T) {
	for _, release := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			hits := 0
			for seed := int64(1); seed <= 4; seed++ {
				w := newSlotWorld(seed, 16, 4)
				r := rand.New(rand.NewSource(seed * 7))
				eng := MustNewEngine(EngineOptions{Workers: workers})
				var prev *graph.Digraph
				var prevOrder []int
				var delta graph.Delta
				for step := 0; step < 18; step++ {
					switch step % 4 {
					case 0, 3:
						w.churn(1 + r.Intn(6))
					case 1:
						w.leave()
					default:
						w.join(4)
					}
					slotG, order, dense := w.capture()
					if dense.N() <= 1 {
						continue
					}
					switch step % 3 {
					case 0:
						eng.Bind(dense)
					case 1:
						eng.BindSlots(slotG, order)
					default:
						if prev.N() != slotG.N() { // the slot table grew
							eng.BindSlots(slotG, order)
							break
						}
						graph.DiffSlotsInto(prev, slotG, prevOrder, order, &delta)
						if release {
							eng.Release()
						}
						fallbacks := eng.RebindFallbacks()
						eng.RebindSlots(slotG, delta, order)
						if release && eng.RebindFallbacks() != fallbacks {
							t.Fatalf("workers %d seed %d step %d: RebindSlots after a release fell back", workers, seed, step)
						}
					}
					prev, prevOrder = slotG, order
					for i := 0; i < 6; i++ {
						q := SnapshotQuery{SampleFraction: memoFracs[r.Intn(len(memoFracs))], AvgSeed: int64(r.Intn(3))}
						if release {
							eng.Release()
							released(t, eng)
						}
						flows := eng.SweepFlows() + eng.SweepSettled()
						got := eng.AnalyzeSnapshot(q)
						if want := freshSnapshot(dense, workers, q); !sameSnapshot(got, want) {
							t.Fatalf("release %v workers %d seed %d step %d query %+v: memo engine %+v, fresh engine %+v",
								release, workers, seed, step, q, got, want)
						}
						if eng.SweepFlows()+eng.SweepSettled() == flows {
							hits++
						}
						if !release {
							continue
						}
						eng.Release()
						flows = eng.SweepFlows() + eng.SweepSettled()
						if again := eng.AnalyzeSnapshot(q); !sameSnapshot(again, got) {
							t.Fatalf("workers %d seed %d step %d query %+v: repeat after release %+v, first %+v",
								workers, seed, step, q, again, got)
						}
						if swept := eng.SweepFlows() + eng.SweepSettled() - flows; swept != 0 {
							t.Fatalf("workers %d seed %d step %d query %+v: repeat after release swept %d pairs",
								workers, seed, step, q, swept)
						}
						released(t, eng)
					}
				}
			}
			if hits == 0 {
				t.Fatalf("release %v workers %d: no analysis was answered from the memo alone", release, workers)
			}
		}
	}
}

// TestReleasedEngineCuts: a released engine's next cut query — a PairCut
// with no sweep before it, or a GraphCut — rebuilds the cut network from
// the binding (under a dense Bind, from the Even list the release
// dropped) and extracts exactly the cut an unreleased engine does,
// whether or not a cut network existed before the release, in both
// binding styles.
func TestReleasedEngineCuts(t *testing.T) {
	w := newSlotWorld(5, 40, 4)
	for i := 0; i < 6; i++ {
		w.leave()
	}
	slotG, order, dense := w.capture()
	q := Query{SampleFraction: 0.25}
	for _, workers := range []int{1, 4} {
		ref := MustNewEngine(EngineOptions{Workers: workers})
		ref.Bind(dense)
		wantCut, wantPair, wantOK, err := ref.GraphCut(q)
		if err != nil || !wantOK {
			t.Fatalf("workers %d: unreleased GraphCut ok=%v err=%v", workers, wantOK, err)
		}
		for _, masked := range []bool{false, true} {
			for _, cutFirst := range []bool{false, true} {
				eng := MustNewEngine(EngineOptions{Workers: workers})
				if masked {
					eng.BindSlots(slotG, order)
				} else {
					eng.Bind(dense)
				}
				eng.AnalyzeSnapshot(SnapshotQuery{SampleFraction: 0.5, AvgSeed: 3})
				if cutFirst {
					if _, _, _, err := eng.GraphCut(q); err != nil {
						t.Fatal(err)
					}
				}
				builds := eng.CutNetworkBuilds()
				eng.Release()
				released(t, eng)
				// A PairCut straight after the release: no sweep has rebuilt
				// the Even list for it.
				if cut, err := eng.PairCut(wantPair[0], wantPair[1]); err != nil || !slices.Equal(cut, wantCut) {
					t.Fatalf("workers %d masked %v cut first %v: released PairCut %v %v, unreleased %v",
						workers, masked, cutFirst, cut, err, wantCut)
				}
				eng.Release()
				cut, pair, ok, err := eng.GraphCut(q)
				if err != nil || ok != wantOK || pair != wantPair || !slices.Equal(cut, wantCut) {
					t.Fatalf("workers %d masked %v cut first %v: released GraphCut %v %v %v %v, unreleased %v %v %v",
						workers, masked, cutFirst, cut, pair, ok, err, wantCut, wantPair, wantOK)
				}
				if eng.CutNetworkBuilds() != builds+2 {
					t.Fatalf("workers %d masked %v cut first %v: %d cut network builds after two releases, want 2",
						workers, masked, cutFirst, eng.CutNetworkBuilds()-builds)
				}
			}
		}
	}
}

// TestSnapshotMemoSolvesEachRowOnce: over one binding, the flows a run
// of resamples costs are exactly the rows of the distinct uniform sources
// they draw, plus one capped Min sweep per distinct source count — the
// same whatever order the resamples come in.
func TestSnapshotMemoSolvesEachRowOnce(t *testing.T) {
	g := kadShapedGraph(3, 60, 6)
	queries := []SnapshotQuery{
		{SampleFraction: 0.1, AvgSeed: 1}, {SampleFraction: 0.1, AvgSeed: 2},
		{SampleFraction: 0.5, AvgSeed: 3}, {SampleFraction: 0.1, AvgSeed: 1},
		{SampleFraction: 0.5, AvgSeed: 4}, {SampleFraction: 0.1, AvgSeed: 5},
	}
	cost := func(order []int) int {
		eng := MustNewEngine(EngineOptions{Workers: 1})
		eng.Bind(g)
		for _, i := range order {
			eng.AnalyzeSnapshot(queries[i])
		}
		return eng.SweepFlows() + eng.SweepSettled()
	}
	forward := cost([]int{0, 1, 2, 3, 4, 5})
	if backward := cost([]int{5, 4, 3, 2, 1, 0}); backward != forward {
		t.Fatalf("resamples cost %d pairs in one order and %d in the other", forward, backward)
	}
	// The same work without the memo: a rebind before every query.
	eng := MustNewEngine(EngineOptions{Workers: 1})
	unmemoized := 0
	for _, q := range queries {
		eng.Bind(g)
		before := eng.SweepFlows() + eng.SweepSettled()
		eng.AnalyzeSnapshot(q)
		unmemoized += eng.SweepFlows() + eng.SweepSettled() - before
	}
	if forward >= unmemoized {
		t.Fatalf("memoized resamples cost %d pairs, unmemoized %d", forward, unmemoized)
	}
}
