package connectivity

import (
	"testing"
)

func TestGovernancePolicyThresholds(t *testing.T) {
	var zero GovernancePolicy
	if zero.Enabled() {
		t.Fatal("zero policy must be disabled")
	}
	if zero.SlotCompactionDue(100, 1) {
		t.Fatal("disabled policy reported slot compaction due")
	}
	p := DefaultGovernance()
	if !p.Enabled() {
		t.Fatal("default policy must be enabled")
	}
	// 0.5 slack: due only once vacants exceed half the live count.
	if p.SlotCompactionDue(12, 8) { // 4 vacant, threshold 4 — not strictly over
		t.Fatal("compaction due at exactly the threshold")
	}
	if !p.SlotCompactionDue(13, 8) { // 5 vacant > 4
		t.Fatal("compaction not due past the threshold")
	}
	if !p.SlotCompactionDue(1, 0) { // dead table: all slack, no live
		t.Fatal("compaction not due for a fully vacant table")
	}
}

// TestSlotCompactBindMatchesFresh pins the slot-compaction contract end
// to end: after SlotMap.Compact renumbers the vertex space, the next
// capture binds (via the incremental binder's automatic full-bind
// fallback — the slot count shrank) and every engine answer matches a
// from-scratch dense bind, before and after further churn on the
// compacted table.
func TestSlotCompactBindMatchesFresh(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		w := newSlotWorld(seed, 16, 4)
		eng := MustNewEngine(EngineOptions{Workers: 3})
		binder := NewIncrementalBinder(eng)
		ref := MustNewEngine(EngineOptions{Workers: 1})
		check := func(stage string) {
			t.Helper()
			slotG, order, dense := w.capture()
			if dense.N() <= 2 {
				return
			}
			binder.BindNextSlots(slotG, order)
			ref.Bind(dense)
			sq := SnapshotQuery{SampleFraction: 0.5, AvgSeed: seed}
			gotSnap, wantSnap := eng.AnalyzeSnapshot(sq), ref.AnalyzeSnapshot(sq)
			requireSameResult(t, stage+"/snapshot.Min", gotSnap.Min, wantSnap.Min)
			requireSameResult(t, stage+"/snapshot.Avg", gotSnap.Avg, wantSnap.Avg)
			mq := Query{SampleFraction: 0.5, MinOnly: true}
			requireSameResult(t, stage+"/minonly", eng.Analyze(mq), ref.Analyze(mq))
			gotCut, gotPair, gotOK, err := eng.GraphCut(Query{SampleFraction: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			wantCut, wantPair, wantOK, err := ref.GraphCut(Query{SampleFraction: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			requireSameCut(t, stage+"/graphcut", gotCut, gotPair, gotOK, wantCut, wantPair, wantOK)
		}
		check("initial")
		// Scramble: leaves open vacancies, churn rewires.
		for i := 0; i < 7; i++ {
			w.leave()
		}
		w.churn(8)
		check("scrambled")
		preLen := w.slots.Len()
		if remap := w.slots.Compact(); remap == nil {
			t.Fatalf("seed %d: no tombstones to compact after 7 leaves", seed)
		}
		if w.slots.Len() >= preLen {
			t.Fatalf("seed %d: compaction did not shrink slot table: %d -> %d", seed, preLen, w.slots.Len())
		}
		check("compacted")
		// Churn on the compacted table, including joins that append.
		w.churn(6)
		for i := 0; i < 3; i++ {
			w.join(3)
		}
		check("post-compact churn")
	}
}

// TestGovernedEngineMatchesFresh drives a governed engine — an
// aggressive MaxDeadFrac so re-densification fires repeatedly — through
// membership churn with Maintain between snapshots, holding every answer
// bit-identical to an ungoverned from-scratch reference. This is the
// engine half of the governance contract: maintenance must be invisible
// to results.
func TestGovernedEngineMatchesFresh(t *testing.T) {
	w := newSlotWorld(31, 14, 3)
	eng := MustNewEngine(EngineOptions{Workers: 2})
	gov := GovernancePolicy{MaxDeadFrac: 0.01, MaxSlotSlack: 0.5}
	eng.SetGovernance(gov)
	binder := NewIncrementalBinder(eng)
	ref := MustNewEngine(EngineOptions{Workers: 1})
	for step := 0; step < 36; step++ {
		switch step % 4 {
		case 0, 2:
			w.churn(2 + w.r.Intn(5))
		case 1:
			w.leave()
		default:
			w.join(3)
		}
		// Slot governance between captures, exactly as the runner does it.
		if gov.SlotCompactionDue(w.slots.Len(), w.slots.Live()) {
			w.slots.Compact()
		}
		slotG, order, dense := w.capture()
		if dense.N() <= 1 {
			continue
		}
		binder.BindNextSlots(slotG, order)
		ref.Bind(dense)
		sq := SnapshotQuery{SampleFraction: 0.5, AvgSeed: int64(step)}
		gotSnap, wantSnap := eng.AnalyzeSnapshot(sq), ref.AnalyzeSnapshot(sq)
		requireSameResult(t, "snapshot.Min", gotSnap.Min, wantSnap.Min)
		requireSameResult(t, "snapshot.Avg", gotSnap.Avg, wantSnap.Avg)
		gotCut, gotPair, gotOK, err := eng.GraphCut(Query{SampleFraction: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		wantCut, wantPair, wantOK, err := ref.GraphCut(Query{SampleFraction: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		requireSameCut(t, "graphcut", gotCut, gotPair, gotOK, wantCut, wantPair, wantOK)
		if fb := eng.RebindFallbacks(); fb != 0 {
			t.Fatalf("step %d: %d rebind fallbacks", step, fb)
		}
		// Arc-store governance between snapshots.
		eng.Maintain()
	}
	if eng.Redensifies() == 0 {
		t.Fatal("aggressive policy never re-densified a primary solver")
	}
	if eng.MaxSolverArcs() == 0 {
		t.Fatal("MaxSolverArcs reported no solvers after 36 analyzed snapshots")
	}
}

// TestMaintainDisabledByDefault pins the opt-in contract: a fresh engine
// has the zero policy and Maintain is a no-op regardless of garbage.
func TestMaintainDisabledByDefault(t *testing.T) {
	w := newSlotWorld(7, 10, 3)
	eng := MustNewEngine(EngineOptions{Workers: 1})
	binder := NewIncrementalBinder(eng)
	for step := 0; step < 8; step++ {
		w.churn(4)
		slotG, order, _ := w.capture()
		binder.BindNextSlots(slotG, order)
		eng.AnalyzeSnapshot(SnapshotQuery{SampleFraction: 0.5})
	}
	if n := eng.Maintain(); n != 0 {
		t.Fatalf("ungoverned Maintain compacted %d stores", n)
	}
	if eng.Redensifies() != 0 {
		t.Fatal("ungoverned engine counted redensifies")
	}
}

// TestMemoryStatsWorkerCountInvariant pins the determinism contract for
// the serialized diagnostics: the same snapshot/maintenance sequence at
// different worker counts reports identical MemoryStats and Redensifies,
// because both read only worker 0's sweep solver and the cut network.
func TestMemoryStatsWorkerCountInvariant(t *testing.T) {
	run := func(workers int) (MemoryStats, int) {
		w := newSlotWorld(19, 14, 3)
		eng := MustNewEngine(EngineOptions{Workers: workers})
		eng.SetGovernance(GovernancePolicy{MaxDeadFrac: 0.05, MaxSlotSlack: 0.5})
		binder := NewIncrementalBinder(eng)
		for step := 0; step < 24; step++ {
			switch step % 3 {
			case 0:
				w.churn(3)
			case 1:
				w.leave()
			default:
				w.join(3)
			}
			slotG, order, dense := w.capture()
			if dense.N() <= 1 {
				continue
			}
			binder.BindNextSlots(slotG, order)
			eng.AnalyzeSnapshot(SnapshotQuery{SampleFraction: 0.5, AvgSeed: int64(step)})
			if _, _, _, err := eng.GraphCut(Query{SampleFraction: 0.5}); err != nil {
				t.Fatal(err)
			}
			eng.Maintain()
		}
		return eng.MemoryStats(), eng.Redensifies()
	}
	m1, r1 := run(1)
	m8, r8 := run(8)
	if m1 != m8 {
		t.Fatalf("MemoryStats varies with worker count: %+v != %+v", m1, m8)
	}
	if r1 != r8 {
		t.Fatalf("Redensifies varies with worker count: %d != %d", r1, r8)
	}
	if r1 == 0 {
		t.Fatal("sequence never triggered a primary re-densify")
	}
	if m1.Arcs == 0 || m1.LiveArcs == 0 {
		t.Fatalf("empty MemoryStats after 24 snapshots: %+v", m1)
	}
}

// TestEngineOneStorePerWorker pins the single arc store: capped and exact
// tasks of one worker share one solver, so after a fused sweep the primary
// footprint is exactly one sweep store, a cut query adds exactly the cut
// network, and a governance event re-densifies one store per worker.
func TestEngineOneStorePerWorker(t *testing.T) {
	w := newSlotWorld(11, 30, 4)
	for i := 0; i < 5; i++ {
		w.leave()
	}
	slotG, order, dense := w.capture()
	for _, workers := range []int{1, 3} {
		for _, masked := range []bool{false, true} {
			eng := MustNewEngine(EngineOptions{Workers: workers})
			if masked {
				eng.BindSlots(slotG, order)
			} else {
				eng.Bind(dense)
			}
			sr := eng.AnalyzeSnapshot(SnapshotQuery{SampleFraction: 0.5, AvgSeed: 1})
			if sr.Min.Pairs == 0 || sr.Avg.Pairs == 0 || eng.SweepFlows() == 0 {
				t.Fatalf("workers %d masked %v: sweep ran no capped or no exact task: %+v", workers, masked, sr)
			}
			sweepArcs := eng.MemoryStats().Arcs
			if sweepArcs == 0 || sweepArcs != eng.MaxSolverArcs() {
				t.Fatalf("workers %d masked %v: primary footprint %d arcs, want one sweep store of %d",
					workers, masked, sweepArcs, eng.MaxSolverArcs())
			}
			_, _, ok, err := eng.GraphCut(Query{SampleFraction: 0.5})
			if err != nil || !ok {
				t.Fatalf("workers %d masked %v: GraphCut ok=%v err=%v", workers, masked, ok, err)
			}
			cutArcs := eng.cutSolver.ArcStats().Arcs
			if got := eng.MemoryStats().Arcs; cutArcs == 0 || got != sweepArcs+cutArcs {
				t.Fatalf("workers %d masked %v: footprint after a cut %d arcs, want %d + %d",
					workers, masked, got, sweepArcs, cutArcs)
			}
		}
	}

	eng := MustNewEngine(EngineOptions{Workers: 1})
	eng.SetGovernance(GovernancePolicy{MaxDeadFrac: 0.05})
	binder := NewIncrementalBinder(eng)
	maintained := 0
	for step := 0; step < 24; step++ {
		w.churn(4)
		slotG, order, _ := w.capture()
		binder.BindNextSlots(slotG, order)
		eng.AnalyzeSnapshot(SnapshotQuery{SampleFraction: 0.5, AvgSeed: int64(step)})
		n := eng.Maintain()
		if n > 1 {
			t.Fatalf("step %d: Maintain re-densified %d stores at Workers: 1, want at most 1", step, n)
		}
		maintained += n
	}
	if maintained == 0 || maintained != eng.Redensifies() {
		t.Fatalf("Maintain returns sum to %d, Redensifies() = %d, want equal and > 0", maintained, eng.Redensifies())
	}
}
