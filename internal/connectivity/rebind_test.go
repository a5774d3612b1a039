package connectivity

import (
	"math"
	"slices"
	"testing"

	"kadre/internal/graph"
)

func requireSameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.N != want.N || got.Min != want.Min || got.Pairs != want.Pairs ||
		got.Sources != want.Sources || got.Complete != want.Complete ||
		got.MinPair != want.MinPair ||
		math.Float64bits(got.Avg) != math.Float64bits(want.Avg) {
		t.Fatalf("%s: rebind path %+v, fresh bind path %+v", label, got, want)
	}
}

// rebindChain walks inc through steps edge-churned captures of one
// scrambled slot world (vacant and recycled slots) via RebindSlots,
// full-Binds ref to the canonical dense graph of each, and hands every
// step to check — the engine-level differential oracle (churntest replays
// the same contract at scale). With memberEvery > 0 every memberEvery-th
// step also swaps one member (a leave plus a join into the recycled slot),
// so same-membership and membership-changing rebinds interleave; with 0
// the membership stays fixed.
func rebindChain(t *testing.T, seed int64, steps, memberEvery int, inc, ref *Engine,
	check func(step int, dense *graph.Digraph)) {
	t.Helper()
	w := newSlotWorld(seed, 40, 5)
	for i := 0; i < 6; i++ {
		w.leave()
	}
	for i := 0; i < 3; i++ {
		w.join(5)
	}
	prev, prevOrder, _ := w.capture()
	inc.BindSlots(prev, prevOrder)
	var delta graph.Delta
	memberSteps := 0
	for step := 0; step < steps; step++ {
		if memberEvery > 0 && step%memberEvery == memberEvery-1 {
			w.leave()
			w.join(5)
		}
		w.churn(2 + w.r.Intn(11))
		next, order, dense := w.capture()
		if !slices.Equal(prevOrder, order) {
			memberSteps++
		}
		graph.DiffSlotsInto(prev, next, prevOrder, order, &delta)
		if !inc.RebindSlots(next, delta, order) {
			t.Fatalf("step %d: RebindSlots refused a same-slot-count delta", step)
		}
		ref.Bind(dense)
		check(step, dense)
		prev, prevOrder = next, order
	}
	if memberEvery > 0 && (memberSteps == 0 || memberSteps == steps) {
		t.Fatalf("%d of %d steps changed the membership; the chain must interleave both kinds", memberSteps, steps)
	}
	if inc.MembershipRebinds() != memberSteps {
		t.Fatalf("MembershipRebinds = %d, want %d", inc.MembershipRebinds(), memberSteps)
	}
	if fb := inc.RebindFallbacks(); fb != 0 {
		t.Fatalf("%d solver patches fell back on consistent deltas", fb)
	}
}

// TestRebindMatchesBind checks every sweep analysis after a RebindSlots
// against a second engine that full-Binds the compacted graph.
func TestRebindMatchesBind(t *testing.T) {
	inc := MustNewEngine(EngineOptions{Workers: 2})
	ref := MustNewEngine(EngineOptions{Workers: 2})
	rebindChain(t, 17, 20, 0, inc, ref, func(step int, _ *graph.Digraph) {
		q := SnapshotQuery{SampleFraction: 0.3, AvgSeed: int64(step)}
		gotSnap, wantSnap := inc.AnalyzeSnapshot(q), ref.AnalyzeSnapshot(q)
		requireSameResult(t, "snapshot.Min", gotSnap.Min, wantSnap.Min)
		requireSameResult(t, "snapshot.Avg", gotSnap.Avg, wantSnap.Avg)
		mq := Query{SampleFraction: 0.3, MinOnly: true}
		requireSameResult(t, "minpair", inc.Analyze(mq), ref.Analyze(mq))
	})
}

// TestRebindCutPathMatchesBind pins the cut-mode network across rebinds:
// every RebindSlots leaves it stale and the next cut query re-initialises
// it in place in rank space, so the minimum vertex cuts (vertex lists,
// pairs) after a chain of rebinds must equal the from-scratch engine's,
// for the graph's minimizing pair and for an arbitrary one, and the cut
// network must never be rebuilt from scratch — the adversary's strike loop
// stays on one network across arbitrarily many snapshots. The chain runs
// once with the membership fixed and once with membership-changing rebinds
// interleaved, the two cases the engine used to treat differently.
func TestRebindCutPathMatchesBind(t *testing.T) {
	for _, memberEvery := range []int{0, 3} {
		inc := MustNewEngine(EngineOptions{Workers: 1})
		ref := MustNewEngine(EngineOptions{Workers: 1})
		cuts := 0
		rebindChain(t, 23, 15, memberEvery, inc, ref, func(step int, dense *graph.Digraph) {
			q := Query{SampleFraction: 0.5}
			gotCut, gotPair, gotOK, err := inc.GraphCut(q)
			if err != nil {
				t.Fatal(err)
			}
			wantCut, wantPair, wantOK, err := ref.GraphCut(q)
			if err != nil {
				t.Fatal(err)
			}
			requireSameCut(t, "graphcut", gotCut, gotPair, gotOK, wantCut, wantPair, wantOK)
			if wantOK {
				cuts++
			}
			// The last rank is the newest member: sparse, so non-adjacent to
			// some rank on every step.
			v := dense.N() - 1
			for w := 0; w < v; w++ {
				if dense.HasEdge(v, w) {
					continue
				}
				got, err := inc.PairCut(v, w)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.PairCut(v, w)
				if err != nil {
					t.Fatal(err)
				}
				requireSameCut(t, "paircut", got, [2]int{v, w}, true, want, [2]int{v, w}, true)
				break
			}
		})
		if cuts == 0 {
			t.Fatalf("memberEvery %d: trace produced no usable cuts; weak test", memberEvery)
		}
		if builds := inc.CutNetworkBuilds(); builds != 1 {
			t.Fatalf("memberEvery %d: cut network built %d times across rebinds, want 1", memberEvery, builds)
		}
	}
}

// TestRebindIdenticalCaptureKeepsMemo pins the identical-capture case of
// RebindSlots: an empty delta under an unchanged order keeps the binding
// generation, so a repeated AnalyzeSnapshot sweeps no pair and answers as
// before; the next real change still starts a new generation and answers
// like a fresh bind.
func TestRebindIdenticalCaptureKeepsMemo(t *testing.T) {
	w := newSlotWorld(41, 40, 5)
	eng := MustNewEngine(EngineOptions{Workers: 2})
	q := SnapshotQuery{SampleFraction: 0.3, AvgSeed: 5}
	prev, prevOrder, _ := w.capture()
	eng.BindSlots(prev, prevOrder)
	first := eng.AnalyzeSnapshot(q)
	swept := eng.SweepFlows() + eng.SweepSettled()
	var delta graph.Delta
	for step := 0; step < 3; step++ {
		next, order, _ := w.capture()
		graph.DiffSlotsInto(prev, next, prevOrder, order, &delta)
		if len(delta.Added)+len(delta.Removed) != 0 {
			t.Fatalf("step %d: an unchanged world captured a %d+%d-edge delta", step, len(delta.Added), len(delta.Removed))
		}
		if !eng.RebindSlots(next, delta, order) {
			t.Fatalf("step %d: RebindSlots refused an identical capture", step)
		}
		got := eng.AnalyzeSnapshot(q)
		requireSameResult(t, "identical.Min", got.Min, first.Min)
		requireSameResult(t, "identical.Avg", got.Avg, first.Avg)
		if now := eng.SweepFlows() + eng.SweepSettled(); now != swept {
			t.Fatalf("step %d: re-binding an identical capture swept %d pairs again", step, now-swept)
		}
		prev, prevOrder = next, order
	}
	w.churn(6)
	next, order, dense := w.capture()
	graph.DiffSlotsInto(prev, next, prevOrder, order, &delta)
	eng.RebindSlots(next, delta, order)
	ref := MustNewEngine(EngineOptions{Workers: 2})
	ref.Bind(dense)
	got, want := eng.AnalyzeSnapshot(q), ref.AnalyzeSnapshot(q)
	requireSameResult(t, "changed.Min", got.Min, want.Min)
	requireSameResult(t, "changed.Avg", got.Avg, want.Avg)
	if eng.SweepFlows()+eng.SweepSettled() == swept {
		t.Fatal("a changed capture was answered from the previous generation's memo")
	}
	if eng.MembershipRebinds() != 0 || eng.RebindFallbacks() != 0 {
		t.Fatalf("membership rebinds %d, fallbacks %d, want 0/0", eng.MembershipRebinds(), eng.RebindFallbacks())
	}
}

// TestRebindFallsBackOnShapeChange pins the fallback contract: with no
// previous binding, after a dense Bind, or across a slot-count change,
// RebindSlots silently becomes a full BindSlots, reports false, and
// still answers like the reference.
func TestRebindFallsBackOnShapeChange(t *testing.T) {
	w := newSlotWorld(7, 30, 5)
	eng := MustNewEngine(EngineOptions{Workers: 1})
	ref := MustNewEngine(EngineOptions{Workers: 1})
	q := Query{SampleFraction: 1.0, MinOnly: true}
	fallsBack := func(label string) {
		t.Helper()
		g, order, dense := w.capture()
		if eng.RebindSlots(g, graph.Delta{}, order) {
			t.Fatalf("RebindSlots %s must fall back", label)
		}
		ref.Bind(dense)
		requireSameResult(t, label, eng.Analyze(q), ref.Analyze(q))
	}
	fallsBack("with no previous binding")
	_, _, dense := w.capture()
	eng.Bind(dense) // same vertex count as the slot graph, but not a slot binding
	fallsBack("after a dense Bind")
	w.join(5) // no vacancy to recycle: the slot table grows
	fallsBack("across a slot-count change")
	if eng.MembershipRebinds() != 0 {
		t.Fatalf("MembershipRebinds = %d after three fallbacks, want 0", eng.MembershipRebinds())
	}
}

// TestIncrementalBinderPaths pins the binder's routing — a carried-over
// slot space rebinds incrementally whether or not the membership
// changed, a grown one binds in full — and that the counts are
// observable.
func TestIncrementalBinderPaths(t *testing.T) {
	w := newSlotWorld(31, 40, 5)
	eng := MustNewEngine(EngineOptions{Workers: 1})
	b := NewIncrementalBinder(eng)
	next := func() bool {
		g, order, _ := w.capture()
		return b.BindNextSlots(g, order)
	}
	if next() {
		t.Fatal("first bind cannot be incremental")
	}
	w.churn(6)
	if !next() {
		t.Fatal("same-membership successor should rebind incrementally")
	}
	w.leave()
	w.join(5) // recycles the vacated slot
	if !next() || eng.MembershipRebinds() != 1 {
		t.Fatalf("membership change within the slot space must rebind incrementally (membership rebinds %d)",
			eng.MembershipRebinds())
	}
	w.join(5) // grows the slot table
	if next() {
		t.Fatal("slot-table growth must full-bind")
	}
	if b.IncrementalBinds() != 2 || b.FullBinds() != 2 {
		t.Fatalf("binder counters: incremental=%d full=%d, want 2/2", b.IncrementalBinds(), b.FullBinds())
	}
}
