//go:build !race

// The allocation regression tests measure exact steady-state allocation
// counts, which the race detector's instrumentation would distort; they
// are compiled out under -race (the functional engine tests still run).

package connectivity

import (
	"testing"

	"kadre/internal/graph"
)

// TestEngineSteadyStateAllocs pins the engine's reuse contract: after
// warm-up, re-binding and re-analyzing same-shape graphs must not
// allocate at all — the in-neighbour rows, solver state, selection
// scratch and results all live in reused buffers.
func TestEngineSteadyStateAllocs(t *testing.T) {
	g1 := randomSymmetricGraph(1, 60, 600)
	g2 := randomSymmetricGraph(2, 60, 600)
	eng := MustNewEngine(EngineOptions{Workers: 1})
	analyze := func(g *graph.Digraph) Result {
		eng.Bind(g)
		return eng.Analyze(Query{SampleFraction: 0.05, MinOnly: true})
	}
	analyze(g1) // warm-up: first binding allocates
	analyze(g2)
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		if i%2 == 0 {
			analyze(g1)
		} else {
			analyze(g2)
		}
		i++
	})
	if allocs > 0 {
		t.Fatalf("steady-state Engine.Analyze allocates %.1f times per run, want 0", allocs)
	}
}

// TestEngineSlotRebindSteadyStateAllocs pins the stable-slot incremental
// path's reuse contract: alternating between two slot captures that
// differ by a MEMBERSHIP change (one node replaced by another recycling
// its slot, plus the edge churn that implies) must, once warm, not
// allocate at all — the delta scratch, order/rank maps and every
// rebuilt structure live in reused buffers.
func TestEngineSlotRebindSteadyStateAllocs(t *testing.T) {
	w := newSlotWorld(9, 40, 5)
	gA, orderA, _ := w.capture()
	w.leave()
	w.join(5)
	gB, orderB, _ := w.capture()
	if gA.N() != gB.N() {
		t.Fatalf("slot count changed across the leave+join: %d -> %d", gA.N(), gB.N())
	}
	eng := MustNewEngine(EngineOptions{Workers: 1})
	binder := NewIncrementalBinder(eng)
	step := func(g *graph.Digraph, order []int) {
		if !binder.BindNextSlots(g, order) && binder.FullBinds() > 1 {
			t.Fatal("BindNextSlots fell back during steady state")
		}
		eng.AnalyzeSnapshot(SnapshotQuery{SampleFraction: 0.05, AvgSeed: 3})
	}
	step(gA, orderA)
	step(gB, orderB) // warm-up: delta buffers, order copies
	step(gA, orderA)
	step(gB, orderB)
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		if i%2 == 0 {
			step(gA, orderA)
		} else {
			step(gB, orderB)
		}
		i++
	})
	if allocs > 0 {
		t.Fatalf("steady-state slot diff+RebindSlots+AnalyzeSnapshot allocates %.1f times per run, want 0", allocs)
	}
	if eng.MembershipRebinds() == 0 {
		t.Fatal("alternating captures never crossed a membership change")
	}
}

// TestEngineSnapshotAndCutAllocs bounds the fused snapshot analysis plus
// a GraphCut — one cutset-adversary strike — to the unavoidable result
// allocations (the returned cut slice), proving strikes construct no
// flow network of their own.
func TestEngineSnapshotAndCutAllocs(t *testing.T) {
	g1 := randomSymmetricGraph(3, 60, 600)
	g2 := randomSymmetricGraph(4, 60, 600)
	eng := MustNewEngine(EngineOptions{Workers: 1})
	strike := func(g *graph.Digraph) {
		eng.Bind(g)
		eng.AnalyzeSnapshot(SnapshotQuery{SampleFraction: 0.05, AvgSeed: 7})
		if _, _, _, err := eng.GraphCut(Query{SampleFraction: 0.05}); err != nil {
			t.Fatal(err)
		}
	}
	strike(g1)
	strike(g2)
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		if i%2 == 0 {
			strike(g1)
		} else {
			strike(g2)
		}
		i++
	})
	// The returned cut slice is fresh per call by API contract;
	// everything else must be reused.
	if allocs > 8 {
		t.Fatalf("steady-state strike allocates %.1f times per run, want <= 8", allocs)
	}
}
