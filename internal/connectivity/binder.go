package connectivity

import "kadre/internal/graph"

// IncrementalBinder drives one Engine across a sequence of stable-slot
// captures, taking the incremental RebindSlots path whenever the slot
// space carried over from the previous capture and the full BindSlots
// path otherwise. It owns the previous graph reference, the previous
// compaction map and a reused delta buffer, so the steady state — diff,
// patch, analyze — does not allocate.
//
// Graphs handed to BindNextSlots must not be mutated afterwards: the
// binder keeps the latest one as the diff base, and the engine analyzes
// it.
type IncrementalBinder struct {
	eng       *Engine
	prev      *graph.Digraph
	prevOrder []int
	delta     graph.Delta

	incremental int
	full        int
}

// NewIncrementalBinder wraps eng. Once a binder drives an engine, ALL
// binding must go through BindNextSlots: a direct Engine.Bind, BindSlots
// or RebindSlots in between is invisible to the binder, so its next diff
// would be computed against the wrong base graph and patched onto the
// wrong binding — silently wrong analyses. Queries on the engine between
// BindNextSlots calls are fine.
func NewIncrementalBinder(eng *Engine) *IncrementalBinder {
	return &IncrementalBinder{eng: eng}
}

// BindNextSlots binds a stable-slot capture (the graph plus its
// canonical compaction map, as produced by snapshot.CaptureSlots),
// incrementally whenever the slot space carried over — which it does
// across joins, leaves and strikes, not just same-membership edge churn:
// slot identity is exactly what makes the vertex half of the delta
// well-defined. Only a change of the slot count (more live nodes than
// ever before, or a slot-table compaction) forces a full bind. The
// binder detects membership changes itself by comparing capture orders,
// so there is no same-vertices flag for callers to get wrong.
//
// The graph must not be mutated afterwards; order is copied.
func (b *IncrementalBinder) BindNextSlots(g *graph.Digraph, order []int) bool {
	inc := false
	if b.prev != nil && b.prev.N() == g.N() {
		graph.DiffSlotsInto(b.prev, g, b.prevOrder, order, &b.delta)
		inc = b.eng.RebindSlots(g, b.delta, order)
	} else {
		b.eng.BindSlots(g, order)
	}
	b.prev = g
	b.prevOrder = append(b.prevOrder[:0], order...)
	if inc {
		b.incremental++
	} else {
		b.full++
	}
	return inc
}

// IncrementalBinds reports how many BindNextSlots calls took the
// RebindSlots path.
func (b *IncrementalBinder) IncrementalBinds() int { return b.incremental }

// FullBinds reports how many BindNextSlots calls fell back to a full
// BindSlots.
func (b *IncrementalBinder) FullBinds() int { return b.full }
