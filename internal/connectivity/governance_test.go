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

// TestGovernedEngineMatchesFresh drives an engine through membership
// churn under an aggressive slot policy, compacting the slot table
// between captures exactly as the runner does, and holds every answer
// bit-identical to a from-scratch reference. This is the engine half of
// the governance contract: maintenance must be invisible to results.
func TestGovernedEngineMatchesFresh(t *testing.T) {
	w := newSlotWorld(31, 24, 3)
	eng := MustNewEngine(EngineOptions{Workers: 2})
	gov := GovernancePolicy{MaxSlotSlack: 0.2}
	binder := NewIncrementalBinder(eng)
	ref := MustNewEngine(EngineOptions{Workers: 1})
	compactions := 0
	for step := 0; step < 36; step++ {
		// Three leaves per join: the population drains, so vacancies pile
		// up faster than joins recycle them.
		switch step % 6 {
		case 0, 3:
			w.churn(2 + w.r.Intn(5))
		case 1, 2, 4:
			w.leave()
		default:
			w.join(3)
		}
		if gov.SlotCompactionDue(w.slots.Len(), w.slots.Live()) {
			w.slots.Compact()
			compactions++
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
	}
	if compactions == 0 {
		t.Fatal("aggressive policy never compacted the slot table")
	}
}
