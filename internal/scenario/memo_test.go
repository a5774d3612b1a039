package scenario

import (
	"math"
	"testing"

	"kadre/internal/connectivity"
	"kadre/internal/graph"
	"kadre/internal/simnet"
	"kadre/internal/snapshot"
)

// sameConn compares two connectivity results field for field, NaN-aware.
func sameConn(a, b connectivity.Result) bool {
	if math.IsNaN(a.Avg) || math.IsNaN(b.Avg) {
		if !math.IsNaN(a.Avg) || !math.IsNaN(b.Avg) {
			return false
		}
		a.Avg, b.Avg = 0, 0
	}
	return a == b
}

// slotCapture rebuilds a dense snapshot in stable-slot form, the way
// the runner's CaptureSlots numbers it: one slot per address, kept for
// the address's lifetime.
func slotCapture(slots *snapshot.SlotIndex, s *snapshot.Snapshot) (*graph.Digraph, []int) {
	return snapshot.BuildSlotGraph(slots, s.Addrs, func(emit func(u, v simnet.Addr)) {
		for _, e := range s.Graph.Edges() {
			emit(s.Addrs[e.U], s.Addrs[e.V])
		}
	})
}

// TestSnapshotMemoOnGoldenSnapshots is the memo's equivalence property on
// the topologies behind every committed scenario golden: each golden run's
// snapshots are bound in turn — dense Bind, BindSlots, RebindSlots onto
// the slot graph bound just before — and each binding answers a run of
// AnalyzeSnapshot calls that repeat and overlap in fraction and seed.
// Every answer must equal a fresh engine's, at Workers 1 and 4, and the
// first (the run's own fraction and seed) must reproduce the golden point.
func TestSnapshotMemoOnGoldenSnapshots(t *testing.T) {
	cfgs := append([]Config{membersGoldenConfig(), churnGoldenConfig()}, genConfigs(t)...)
	for _, cfg := range cfgs {
		var snaps []*snapshot.Snapshot
		cfg.OnSnapshot = func(s *snapshot.Snapshot, _ SnapshotStat) { snaps = append(snaps, s) }
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			eng := connectivity.MustNewEngine(connectivity.EngineOptions{Workers: workers})
			var slots snapshot.SlotIndex
			var prev *graph.Digraph
			var prevOrder []int
			var delta graph.Delta
			for i, s := range snaps {
				slotG, order := slotCapture(&slots, s)
				if s.N() <= 1 {
					continue
				}
				switch i % 3 {
				case 0:
					eng.Bind(s.Graph)
				case 1:
					eng.BindSlots(slotG, order)
				default:
					if prev == nil || prev.N() != slotG.N() {
						eng.BindSlots(slotG, order)
						break
					}
					graph.DiffSlotsInto(prev, slotG, prevOrder, order, &delta)
					eng.RebindSlots(slotG, delta, order)
				}
				prev, prevOrder = slotG, order
				own := connectivity.SnapshotQuery{SampleFraction: cfg.SampleFraction, AvgSeed: cfg.Seed + int64(i)}
				queries := []connectivity.SnapshotQuery{
					own,
					{SampleFraction: 0.5, AvgSeed: int64(i) + 1},
					{SampleFraction: cfg.SampleFraction, AvgSeed: int64(i) + 2},
					own,
					{SampleFraction: 0.5, AvgSeed: int64(i) + 2},
				}
				for j, q := range queries {
					got := eng.AnalyzeSnapshot(q)
					fresh := connectivity.MustNewEngine(connectivity.EngineOptions{Workers: workers})
					fresh.Bind(s.Graph)
					want := fresh.AnalyzeSnapshot(q)
					if !sameConn(got.Min, want.Min) || !sameConn(got.Avg, want.Avg) {
						t.Fatalf("%s workers %d snapshot %d query %+v: memo engine %+v, fresh engine %+v",
							cfg.Name, workers, i, q, got, want)
					}
					if j > 0 {
						continue
					}
					avg := got.Avg.Avg
					if got.Avg.Pairs == 0 {
						avg = float64(s.N() - 1)
					}
					if p := res.Points[i]; got.Min.Min != p.Min || avg != p.Avg {
						t.Fatalf("%s snapshot %d: min %d avg %v, golden point min %d avg %v",
							cfg.Name, i, got.Min.Min, avg, p.Min, p.Avg)
					}
				}
			}
		}
	}
}
