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

// released fails the test unless eng holds none of the structures a
// binding can rebuild.
func released(t *testing.T, eng *Engine) {
	t.Helper()
	if eng.inRows != nil || eng.chain != nil || eng.succStart != nil || eng.succ != nil {
		t.Fatal("released engine still holds its in-neighbour rows, chain or successor arrays")
	}
	for i := range eng.workers {
		if eng.workers[i].paths.pred != nil || eng.workers[i].fan.in != nil {
			t.Fatalf("released engine's worker %d still holds path or fan scratch", i)
		}
	}
}

// TestSnapshotMemoMatchesFreshEngine is the memo's equivalence property:
// on an evolving slot population, one engine takes every binding style in
// turn — a dense Bind, a BindSlots, a RebindSlots onto the slot graph
// bound just before — and between bindings answers a run of
// AnalyzeSnapshot calls whose fractions and seeds repeat and overlap.
// Every answer must equal a fresh engine's, at Workers 1 and 4, and some
// answers must have come from the memo alone. The released variant drops
// the engine's derived structures before every query and before every
// RebindSlots: the answers must not move, and a query repeated after a
// release must sweep nothing.
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
						eng.RebindSlots(slotG, delta, order)
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
// with no sweep before it, or a GraphCut — rebuilds what it reads from
// the binding and extracts exactly the cut an unreleased engine does,
// whether or not a cut query ran before the release, in both binding
// styles.
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
				eng.Release()
				released(t, eng)
				// A PairCut straight after the release: no sweep has rebuilt
				// the in-neighbour rows or the path solver for it.
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
			}
		}
	}
}

// TestSnapshotMemoSolvesEachRowOnce: over one binding, the flows a run
// of resamples costs are exactly the rows of the distinct uniform sources
// they draw, plus one capped Min sweep per distinct source count — the
// same whatever order the resamples come in.
func TestSnapshotMemoSolvesEachRowOnce(t *testing.T) {
	g := kadShapedGraph(3, 60, 6, 32)
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

// TestReleasedResampleBuildsNoSolver pins what a kadserve resample costs
// a parked engine: after a Release, an Avg resample whose Min is memoized
// but whose uniform rows are not sweeps exact tasks only. Its answers
// equal an unreleased engine's, and it rebuilds only what exact tasks
// read — the in-neighbour rows, the chain and the path scratch — never
// the successor arrays and fan closures of the capped tasks.
func TestReleasedResampleBuildsNoSolver(t *testing.T) {
	w := newSlotWorld(8, 60, 5)
	w.capture()
	for i := 0; i < 6; i++ {
		w.leave()
	}
	slotG, order, dense := w.capture()
	for _, workers := range []int{1, 3} {
		for _, masked := range []bool{false, true} {
			bind := func(eng *Engine) {
				if masked {
					eng.BindSlots(slotG, order)
				} else {
					eng.Bind(dense)
				}
			}
			ref, eng := MustNewEngine(EngineOptions{Workers: workers}), MustNewEngine(EngineOptions{Workers: workers})
			bind(ref)
			bind(eng)
			first := SnapshotQuery{SampleFraction: 0.1, AvgSeed: 1}
			if got, want := eng.AnalyzeSnapshot(first), ref.AnalyzeSnapshot(first); !sameSnapshot(got, want) {
				t.Fatalf("workers %d masked %v: %+v, reference engine %+v", workers, masked, got, want)
			}
			for seed := int64(2); seed <= 4; seed++ {
				eng.Release()
				released(t, eng)
				q := SnapshotQuery{SampleFraction: 0.1, AvgSeed: seed}
				exact := eng.SweepExact()
				got, want := eng.AnalyzeSnapshot(q), ref.AnalyzeSnapshot(q)
				if !sameSnapshot(got, want) {
					t.Fatalf("workers %d masked %v seed %d: released %+v, unreleased %+v", workers, masked, seed, got, want)
				}
				if eng.SweepExact() == exact {
					t.Fatalf("workers %d masked %v seed %d: the resample swept no row", workers, masked, seed)
				}
				if eng.succStart != nil || eng.succ != nil {
					t.Fatalf("workers %d masked %v seed %d: the resample rebuilt the successor arrays", workers, masked, seed)
				}
				for i := range eng.workers {
					if eng.workers[i].fan.in != nil {
						t.Fatalf("workers %d masked %v seed %d: worker %d rebuilt a fan closure", workers, masked, seed, i)
					}
				}
			}
		}
	}
}
