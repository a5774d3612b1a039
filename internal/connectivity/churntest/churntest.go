// Package churntest is the differential churn oracle: it pins the
// incremental snapshot-connectivity path (stable-slot graph deltas
// patched into a long-lived engine via RebindSlots) to the from-scratch
// reference (a dense Engine.Bind per snapshot, which is why Bind stays a
// code path of its own rather than the identity-order case of BindSlots)
// over randomized churn traces.
//
// A trace models exactly the membership dynamics of the scenario runner:
// routing-table edge churn between snapshots, node joins appended in join
// order, random departures, and adversarial strikes that remove the
// highest-degree nodes. After every step the live membership is captured
// twice: in stable-slot form the way snapshot.CaptureSlots does (each
// node holds a persistent vertex slot, tombstoned on departure, recycled
// for joins), which the incremental engines bind through
// IncrementalBinder.BindNextSlots, and in canonical dense form the way
// snapshot.Capture compacts live nodes, which a fresh reference engine
// binds from scratch. Every answer — the fused Min/Avg snapshot
// analysis, the deterministic MinPair, and the minimum vertex cut — must
// be identical in the canonical numbering. Because stable slots keep the
// vertex space alive across joins, leaves and strikes, the incremental
// path is asserted to be taken on every step where the slot table did
// not grow — membership churn included — with zero solver patch
// fallbacks. Because the incremental path replaces exact recomputation
// with in-place reuse, this equivalence IS the correctness argument; the
// harness runs under -race with both a serial and a wide worker pool.
package churntest

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"kadre/internal/connectivity"
	"kadre/internal/graph"
	"kadre/internal/snapshot"
)

// Options parameterizes one oracle run.
type Options struct {
	// Seed drives every random choice of the trace.
	Seed int64
	// Initial is the starting node count.
	Initial int
	// Steps is the number of churn steps (snapshots) to replay.
	Steps int
	// Degree is the target out-degree when wiring new nodes.
	Degree int
	// Workers lists the engine worker pools replayed incrementally; every
	// pool must agree with the from-scratch reference (and hence with
	// every other pool). Typically {1, 8}.
	Workers []int
	// SampleFraction is the analysis sampling c; 0 means 0.5 (high enough
	// to keep tiny traces informative).
	SampleFraction float64
	// MembershipHeavy biases the trace toward joins, leaves and strikes
	// (about two thirds of steps instead of ~30%), soaking the
	// membership-crossing rebind path and the slot recycler.
	MembershipHeavy bool
	// Governance, when enabled, installs the memory-governance policy on
	// every incremental engine and mirrors the scenario runner's
	// maintenance points: Engine.Maintain after each step's queries, and a
	// slot-table compaction between captures once the policy's slack
	// threshold trips. The oracle then additionally holds the governed
	// engines to bit-identical answers across every compaction event. The
	// zero value disables governance (the historical trace).
	Governance connectivity.GovernancePolicy
	// edgeChurnOnly restricts the trace to routing-table churn, pinning
	// the all-incremental steady state (test hook).
	edgeChurnOnly bool
}

// Stats reports what a successful run exercised.
type Stats struct {
	// IncrementalBinds and FullBinds count the binding paths taken by
	// each incremental engine (identical across worker counts).
	IncrementalBinds int
	FullBinds        int
	// MembershipRebinds counts incremental binds that crossed a join,
	// leave or strike — the steps only stable-slot indexing can patch.
	MembershipRebinds int
	// SlotGrowthBinds counts the full binds forced by slot-table growth
	// (a new all-time-high live count); together with the first bind and
	// CompactionBinds they must account for every full bind.
	SlotGrowthBinds int
	// CompactionBinds counts the full binds forced by a governed
	// slot-table compaction (the slot space renumbered, so the next
	// capture binds from scratch).
	CompactionBinds int
	// SlotCompactions counts governed slot-table compactions;
	// Redensifies the primary-solver arc-store rebuilds Maintain
	// performed (identical across worker counts, which Run asserts).
	SlotCompactions int
	Redensifies     int
	// Joins, Leaves, Strikes and EdgeChurn count trace events.
	Joins, Leaves, Strikes, EdgeChurn int
	// PeakLive is the all-time-high live population; ArcsAtPeak and
	// SlotLenAtPeak record the largest solver arc array and the slot-table
	// length as of the last step at that population — the "peak-P steady
	// state" footprint the long-churn soak bounds the final footprint
	// against. FinalMaxArcs and FinalSlotLen are the same measurements at
	// the end of the trace.
	PeakLive      int
	ArcsAtPeak    int
	SlotLenAtPeak int
	FinalMaxArcs  int
	FinalSlotLen  int
}

// trace is the evolving network: node identities in join order (the
// analogue of the scenario population's nodes slice filtered to live
// ones) and directed edges between them.
type trace struct {
	rng    *rand.Rand
	nextID int
	alive  []int
	edges  map[[2]int]bool
	// removedPool remembers recently deleted edges so additions revive
	// old (node, node) pairs often — the tombstone/revive hot path of the
	// in-place solver patching.
	removedPool [][2]int
	degree      int
	// slots assigns persistent vertex slots across captures, exactly the
	// snapshot layer's stable-slot population indexing.
	slots snapshot.SlotMap[int]
}

func newTrace(seed int64, initial, degree int) *trace {
	t := &trace{
		rng:    rand.New(rand.NewSource(seed)),
		edges:  map[[2]int]bool{},
		degree: degree,
	}
	for i := 0; i < initial; i++ {
		t.join()
	}
	return t
}

// join adds one node and wires it into the network both ways, like a
// Kademlia join populating routing tables.
func (t *trace) join() {
	id := t.nextID
	t.nextID++
	t.alive = append(t.alive, id)
	for d := 0; d < t.degree && len(t.alive) > 1; d++ {
		other := t.alive[t.rng.Intn(len(t.alive))]
		if other == id {
			continue
		}
		t.edges[[2]int{id, other}] = true
		if t.rng.Float64() < 0.9 {
			t.edges[[2]int{other, id}] = true
		}
	}
}

// remove deletes the node at position idx of the alive list together
// with its incident edges.
func (t *trace) remove(idx int) {
	id := t.alive[idx]
	t.alive = slices.Delete(t.alive, idx, idx+1)
	for e := range t.edges {
		if e[0] == id || e[1] == id {
			delete(t.edges, e)
		}
	}
}

// strike removes the highest-degree node (ties to the smaller id), the
// deterministic stand-in for an adversarial victim choice.
func (t *trace) strike() {
	if len(t.alive) <= 2 {
		return
	}
	deg := map[int]int{}
	for e := range t.edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	best := 0
	for i, id := range t.alive {
		if deg[id] > deg[t.alive[best]] || (deg[id] == deg[t.alive[best]] && id < t.alive[best]) {
			best = i
		}
	}
	t.remove(best)
}

// edgeChurn applies a handful of routing-table updates: removals feed the
// removed pool, additions drain it about half the time (reviving old
// edges) and invent fresh pairs otherwise. The edge set is snapshotted
// and sorted ONCE per call (map iteration order would be
// nondeterministic), so a call costs O(E log E + changes), not
// O(changes * E log E) — the nightly soak replays long traces.
func (t *trace) edgeChurn(changes int) {
	keys := make([][2]int, 0, len(t.edges))
	for e := range t.edges {
		keys = append(keys, e)
	}
	slices.SortFunc(keys, func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
	for c := 0; c < changes; c++ {
		if t.rng.Float64() < 0.5 && len(keys) > 0 {
			// Remove a uniform draw from the sorted snapshot (swap-delete
			// keeps later draws uniform over the remaining edges).
			i := t.rng.Intn(len(keys))
			e := keys[i]
			keys[i] = keys[len(keys)-1]
			keys = keys[:len(keys)-1]
			delete(t.edges, e)
			t.removedPool = append(t.removedPool, e)
		} else {
			var e [2]int
			if len(t.removedPool) > 0 && t.rng.Float64() < 0.5 {
				i := t.rng.Intn(len(t.removedPool))
				e = t.removedPool[i]
				t.removedPool = slices.Delete(t.removedPool, i, i+1)
				if !t.liveEdge(e) {
					continue
				}
			} else if len(t.alive) >= 2 {
				u := t.alive[t.rng.Intn(len(t.alive))]
				v := t.alive[t.rng.Intn(len(t.alive))]
				if u == v {
					continue
				}
				e = [2]int{u, v}
			} else {
				continue
			}
			t.edges[e] = true
		}
	}
}

// liveEdge reports whether both endpoints are alive.
func (t *trace) liveEdge(e [2]int) bool {
	return slices.Contains(t.alive, e[0]) && slices.Contains(t.alive, e[1])
}

// compact builds the dense snapshot graph: vertex i is the i-th alive
// node in join order, exactly snapshot.Capture's compaction.
func (t *trace) compact() *graph.Digraph {
	index := make(map[int]int, len(t.alive))
	for i, id := range t.alive {
		index[id] = i
	}
	g := graph.NewDigraph(len(t.alive))
	for e := range t.edges {
		u, uok := index[e[0]]
		v, vok := index[e[1]]
		if uok && vok && u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

// captureSlots builds the stable-slot snapshot graph plus the canonical
// compaction map through the production capture core
// (snapshot.BuildSlotGraph) over trace node ids: departed nodes
// tombstone their slots, joins recycle the lowest vacant slot, and
// order lists the live nodes' slots in join order.
func (t *trace) captureSlots() (*graph.Digraph, []int) {
	return snapshot.BuildSlotGraph(&t.slots, t.alive, func(emit func(u, v int)) {
		for e := range t.edges {
			emit(e[0], e[1])
		}
	})
}

// incSide is one incremental engine under test.
type incSide struct {
	workers int
	eng     *connectivity.Engine
	binder  *connectivity.IncrementalBinder
}

// Run replays one randomized churn trace through the incremental engines
// and the from-scratch reference, comparing every answer at every step.
// It returns the first divergence as an error, or the run's stats.
func Run(opts Options) (Stats, error) {
	if opts.SampleFraction == 0 {
		opts.SampleFraction = 0.5
	}
	if len(opts.Workers) == 0 {
		opts.Workers = []int{1, 8}
	}
	var stats Stats
	tr := newTrace(opts.Seed, opts.Initial, opts.Degree)
	sides := make([]incSide, len(opts.Workers))
	for i, w := range opts.Workers {
		eng := connectivity.MustNewEngine(connectivity.EngineOptions{Workers: w})
		eng.SetGovernance(opts.Governance)
		sides[i] = incSide{
			workers: w,
			eng:     eng,
			binder:  connectivity.NewIncrementalBinder(eng),
		}
	}
	prevAlive := []int(nil)
	bound := false
	// pendingCompact marks that the slot table was compacted after the
	// previous bound step: the slot space was renumbered, so the next
	// capture must take the full-bind path even when the table length is
	// unchanged.
	pendingCompact := false

	for step := 0; step < opts.Steps; step++ {
		// Mutate: mostly edge churn, occasionally membership events (or
		// the reverse mix for membership-heavy soaks).
		churnP := 0.70
		if opts.MembershipHeavy {
			churnP = 0.34
		}
		switch r := tr.rng.Float64(); {
		case opts.edgeChurnOnly || r < churnP:
			tr.edgeChurn(1 + tr.rng.Intn(2*tr.degree))
			stats.EdgeChurn++
		case r < churnP+(1-churnP)/3:
			tr.join()
			stats.Joins++
		case r < churnP+2*(1-churnP)/3:
			if len(tr.alive) > 2 {
				tr.remove(tr.rng.Intn(len(tr.alive)))
			}
			stats.Leaves++
		default:
			tr.strike()
			stats.Strikes++
		}

		g := tr.compact()
		if g.N() <= 1 {
			continue
		}
		sameMembers := bound && slices.Equal(prevAlive, tr.alive)
		prevAlive = append(prevAlive[:0], tr.alive...)
		slotsBefore := tr.slots.Len()
		slotG, order := tr.captureSlots()
		grew := tr.slots.Len() != slotsBefore
		expectInc := bound
		if grew || pendingCompact {
			expectInc = false
		}
		bound = true

		// Reference: a fresh engine bound from scratch — the exact
		// recomputation the incremental path claims to reproduce.
		ref := connectivity.MustNewEngine(connectivity.EngineOptions{Workers: 1})
		ref.Bind(g)
		wantSnap := ref.AnalyzeSnapshot(connectivity.SnapshotQuery{
			SampleFraction: opts.SampleFraction, AvgSeed: int64(step),
		})
		wantMin := ref.Analyze(connectivity.Query{
			SampleFraction: opts.SampleFraction, MinOnly: true,
		})
		wantCut, wantPair, wantOK, err := ref.GraphCut(connectivity.Query{SampleFraction: opts.SampleFraction})
		if err != nil {
			return stats, fmt.Errorf("step %d: reference GraphCut: %w", step, err)
		}

		firstInc := false
		for i := range sides {
			s := &sides[i]
			inc := s.binder.BindNextSlots(slotG, order)
			if i == 0 {
				firstInc = inc
			} else if inc != firstInc {
				return stats, fmt.Errorf("step %d: workers=%d took incremental=%v, workers=%d took %v",
					step, sides[0].workers, firstInc, s.workers, inc)
			}
			if inc != expectInc {
				return stats, fmt.Errorf("step %d (workers=%d): incremental=%v, want %v (slot table %d -> %d; joins/leaves/strikes must rebind incrementally)",
					step, s.workers, inc, expectInc, slotsBefore, tr.slots.Len())
			}
			eng := s.eng
			gotSnap := eng.AnalyzeSnapshot(connectivity.SnapshotQuery{
				SampleFraction: opts.SampleFraction, AvgSeed: int64(step),
			})
			if err := equalResults("snapshot.Min", gotSnap.Min, wantSnap.Min); err != nil {
				return stats, stepErr(step, s.workers, inc, err)
			}
			if err := equalResults("snapshot.Avg", gotSnap.Avg, wantSnap.Avg); err != nil {
				return stats, stepErr(step, s.workers, inc, err)
			}
			gotMin := eng.Analyze(connectivity.Query{
				SampleFraction: opts.SampleFraction, MinOnly: true,
			})
			if err := equalResults("minpair analysis", gotMin, wantMin); err != nil {
				return stats, stepErr(step, s.workers, inc, err)
			}
			gotCut, gotPair, gotOK, err := eng.GraphCut(connectivity.Query{SampleFraction: opts.SampleFraction})
			if err != nil {
				return stats, stepErr(step, s.workers, inc, fmt.Errorf("GraphCut: %w", err))
			}
			if gotOK != wantOK || gotPair != wantPair || !slices.Equal(gotCut, wantCut) {
				return stats, stepErr(step, s.workers, inc, fmt.Errorf(
					"GraphCut: got cut=%v pair=%v ok=%v, want cut=%v pair=%v ok=%v",
					gotCut, gotPair, gotOK, wantCut, wantPair, wantOK))
			}
			if fb := eng.RebindFallbacks(); fb != 0 {
				return stats, stepErr(step, s.workers, inc, fmt.Errorf("%d rebind patch fallbacks (tombstone/revive should cover same-membership churn)", fb))
			}
		}
		if firstInc {
			stats.IncrementalBinds++
			if !sameMembers {
				stats.MembershipRebinds++
			}
		} else {
			stats.FullBinds++
			if stats.FullBinds > 1 {
				if pendingCompact {
					stats.CompactionBinds++
				} else if grew {
					stats.SlotGrowthBinds++
				}
			}
		}
		pendingCompact = false

		// End-of-step maintenance, exactly where the scenario runner does
		// it: arc-store governance on every engine (answers must stay
		// bit-identical, which the NEXT step's comparisons hold), then the
		// slot-table compaction decision for the next capture.
		for i := range sides {
			sides[i].eng.Maintain()
		}
		if opts.Governance.SlotCompactionDue(tr.slots.Len(), tr.slots.Live()) {
			tr.slots.Compact()
			pendingCompact = true
			stats.SlotCompactions++
		}
		if live := len(tr.alive); live >= stats.PeakLive {
			stats.PeakLive = live
			stats.ArcsAtPeak = sides[0].eng.MaxSolverArcs()
			stats.SlotLenAtPeak = tr.slots.Len()
		}
	}
	// Every full bind must be accounted for: the first binding plus the
	// slot-growth and compaction boundaries. Anything else is an
	// unexpected fallback.
	if want := 1 + stats.SlotGrowthBinds + stats.CompactionBinds; stats.FullBinds != want {
		return stats, fmt.Errorf("unexpected full binds: %d, want %d (first bind + %d slot growths + %d compactions)",
			stats.FullBinds, want, stats.SlotGrowthBinds, stats.CompactionBinds)
	}
	// The primary re-densify count is part of the deterministic surface:
	// every worker pool must agree on it.
	stats.Redensifies = sides[0].eng.Redensifies()
	for i := 1; i < len(sides); i++ {
		if r := sides[i].eng.Redensifies(); r != stats.Redensifies {
			return stats, fmt.Errorf("redensify count varies with worker count: workers=%d saw %d, workers=%d saw %d",
				sides[0].workers, stats.Redensifies, sides[i].workers, r)
		}
	}
	stats.FinalMaxArcs = sides[0].eng.MaxSolverArcs()
	stats.FinalSlotLen = tr.slots.Len()
	return stats, nil
}

func stepErr(step, workers int, incremental bool, err error) error {
	return fmt.Errorf("step %d (workers=%d, incremental=%v): %w", step, workers, incremental, err)
}

// equalResults compares every field the pipeline consumes. Avg is
// compared bitwise (both sides divide identical integer sums), with NaN
// equal to NaN.
func equalResults(label string, got, want connectivity.Result) error {
	if got.N != want.N || got.Min != want.Min || got.Pairs != want.Pairs ||
		got.Sources != want.Sources || got.Complete != want.Complete ||
		got.MinPair != want.MinPair ||
		math.Float64bits(got.Avg) != math.Float64bits(want.Avg) {
		return fmt.Errorf("%s: got %+v, want %+v", label, got, want)
	}
	return nil
}
