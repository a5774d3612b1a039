package connectivity

import (
	"math/rand"
	"slices"
	"testing"

	"kadre/internal/graph"
	"kadre/internal/snapshot"
)

// slotWorld is a tiny evolving population for the stable-slot tests:
// member ids in join order, edges between live members, and a SlotMap
// assigning persistent slots exactly like the snapshot layer does.
type slotWorld struct {
	r      *rand.Rand
	nextID int
	alive  []int
	edges  map[[2]int]bool
	slots  snapshot.SlotMap[int]
}

func newSlotWorld(seed int64, initial, degree int) *slotWorld {
	w := &slotWorld{r: rand.New(rand.NewSource(seed)), edges: map[[2]int]bool{}}
	for i := 0; i < initial; i++ {
		w.join(degree)
	}
	return w
}

func (w *slotWorld) join(degree int) {
	id := w.nextID
	w.nextID++
	w.alive = append(w.alive, id)
	for d := 0; d < degree && len(w.alive) > 1; d++ {
		other := w.alive[w.r.Intn(len(w.alive))]
		if other == id {
			continue
		}
		w.edges[[2]int{id, other}] = true
		w.edges[[2]int{other, id}] = true
	}
}

func (w *slotWorld) leave() {
	if len(w.alive) <= 3 {
		return
	}
	id := w.alive[w.r.Intn(len(w.alive))]
	w.alive = slices.DeleteFunc(w.alive, func(x int) bool { return x == id })
	for e := range w.edges {
		if e[0] == id || e[1] == id {
			delete(w.edges, e)
		}
	}
}

func (w *slotWorld) churn(changes int) {
	keys := make([][2]int, 0, len(w.edges))
	for e := range w.edges {
		keys = append(keys, e)
	}
	slices.SortFunc(keys, func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
	for c := 0; c < changes; c++ {
		if w.r.Float64() < 0.5 && len(keys) > 0 {
			i := w.r.Intn(len(keys))
			delete(w.edges, keys[i])
			keys[i] = keys[len(keys)-1]
			keys = keys[:len(keys)-1]
		} else if len(w.alive) >= 2 {
			u := w.alive[w.r.Intn(len(w.alive))]
			v := w.alive[w.r.Intn(len(w.alive))]
			if u != v {
				w.edges[[2]int{u, v}] = true
			}
		}
	}
}

// capture produces the stable-slot graph and compaction map (through
// the production capture core), plus the canonical dense graph a plain
// snapshot compaction would build.
func (w *slotWorld) capture() (slotG *graph.Digraph, order []int, dense *graph.Digraph) {
	slotG, order = snapshot.BuildSlotGraph(&w.slots, w.alive, func(emit func(u, v int)) {
		for e := range w.edges {
			emit(e[0], e[1])
		}
	})
	rank := make(map[int]int, len(w.alive))
	for i, id := range w.alive {
		rank[id] = i
	}
	dense = graph.NewDigraph(len(w.alive))
	for e := range w.edges {
		ru, uok := rank[e[0]]
		rv, vok := rank[e[1]]
		if uok && vok && ru != rv {
			dense.AddEdge(ru, rv)
		}
	}
	return slotG, order, dense
}

func requireSameCut(t *testing.T, label string, gotCut []int, gotPair [2]int, gotOK bool, wantCut []int, wantPair [2]int, wantOK bool) {
	t.Helper()
	if gotOK != wantOK || gotPair != wantPair || !slices.Equal(gotCut, wantCut) {
		t.Fatalf("%s: got cut=%v pair=%v ok=%v, want cut=%v pair=%v ok=%v",
			label, gotCut, gotPair, gotOK, wantCut, wantPair, wantOK)
	}
}

// TestBindSlotsMatchesDenseBind pins the masked-binding equivalence: an
// engine bound to a slot graph (vacant slots, recycled order) answers
// every query — fused snapshot analysis, MinOnly analysis with its
// deterministic MinPair, and GraphCut including the extracted cut —
// exactly like a reference engine bound to the canonical compacted
// graph, in the compacted numbering.
func TestBindSlotsMatchesDenseBind(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		w := newSlotWorld(seed, 14, 4)
		// Scramble the slot layout: leaves create vacancies, joins recycle.
		for i := 0; i < 6; i++ {
			w.leave()
		}
		for i := 0; i < 4; i++ {
			w.join(4)
		}
		slotG, order, dense := w.capture()
		if dense.N() <= 2 {
			continue
		}
		eng := MustNewEngine(EngineOptions{Workers: 3})
		eng.BindSlots(slotG, order)
		ref := MustNewEngine(EngineOptions{Workers: 1})
		ref.Bind(dense)

		sq := SnapshotQuery{SampleFraction: 0.5, AvgSeed: seed}
		gotSnap, wantSnap := eng.AnalyzeSnapshot(sq), ref.AnalyzeSnapshot(sq)
		requireSameResult(t, "snapshot.Min", gotSnap.Min, wantSnap.Min)
		requireSameResult(t, "snapshot.Avg", gotSnap.Avg, wantSnap.Avg)

		mq := Query{SampleFraction: 0.5, MinOnly: true}
		requireSameResult(t, "minonly", eng.Analyze(mq), ref.Analyze(mq))
		fq := Query{}
		requireSameResult(t, "exact-full", eng.Analyze(fq), ref.Analyze(fq))

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
}

// TestBindNextSlotsIncrementalAcrossMembership drives one binder across
// edge churn, joins (recycled and appended slots) and leaves, asserting
// (a) every answer matches a from-scratch dense bind, (b) the
// incremental path is taken at every step where the slot table did not
// grow — joins, leaves and strikes included — and (c) no solver patch
// ever falls back.
func TestBindNextSlotsIncrementalAcrossMembership(t *testing.T) {
	w := newSlotWorld(42, 12, 3)
	eng := MustNewEngine(EngineOptions{Workers: 2})
	binder := NewIncrementalBinder(eng)
	ref := MustNewEngine(EngineOptions{Workers: 1})
	bound := false
	prevSlots := -1
	memberSteps := 0
	for step := 0; step < 40; step++ {
		switch step % 4 {
		case 0, 2:
			w.churn(1 + w.r.Intn(6))
		case 1:
			w.leave()
			memberSteps++
		default:
			w.join(3)
			memberSteps++
		}
		slotG, order, dense := w.capture()
		if dense.N() <= 1 {
			continue
		}
		inc := binder.BindNextSlots(slotG, order)
		if bound && slotG.N() == prevSlots && !inc {
			t.Fatalf("step %d: full bind despite stable slot space", step)
		}
		if inc && slotG.N() != prevSlots {
			t.Fatalf("step %d: incremental bind across slot-table growth", step)
		}
		bound = true
		prevSlots = slotG.N()
		ref.Bind(dense)

		sq := SnapshotQuery{SampleFraction: 0.5, AvgSeed: int64(step)}
		gotSnap, wantSnap := eng.AnalyzeSnapshot(sq), ref.AnalyzeSnapshot(sq)
		requireSameResult(t, "snapshot.Min", gotSnap.Min, wantSnap.Min)
		requireSameResult(t, "snapshot.Avg", gotSnap.Avg, wantSnap.Avg)
		mq := Query{SampleFraction: 0.5, MinOnly: true}
		requireSameResult(t, "minonly", eng.Analyze(mq), ref.Analyze(mq))
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
	if binder.IncrementalBinds() == 0 {
		t.Fatal("no incremental binds exercised")
	}
	if eng.MembershipRebinds() == 0 {
		t.Fatalf("no membership-crossing rebinds despite %d membership steps", memberSteps)
	}
}
