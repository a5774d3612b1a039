package attack

import (
	"math/rand"
	"sort"

	"kadre/internal/connectivity"
	"kadre/internal/id"
	"kadre/internal/snapshot"
)

// eclipseTargetLabel seeds the default Eclipse target: hashing a fixed
// label keeps unconfigured eclipse runs deterministic.
const eclipseTargetLabel = "kadre/attack/eclipse-target"

// selectVictims returns up to count distinct vertex indexes of s to
// remove, according to the engine's strategy — every strategy but
// Cutset, which selects from its own stable-slot capture
// (selectCutsetSlots). Every strategy is deterministic given the snapshot
// (and, for Random, the simulator's seeded generator), so attack runs
// replay exactly under a seed.
func (e *Engine) selectVictims(s *snapshot.Snapshot, count int) []int {
	if count > s.N() {
		count = s.N()
	}
	if count <= 0 {
		return nil
	}
	switch e.cfg.Strategy {
	case Random:
		return selectRandom(s, count, e.sim.Rand())
	case Degree:
		return selectDegree(s, count)
	case Eclipse:
		return e.selectEclipse(s, count)
	default:
		return nil // unreachable: NewEngine validates the strategy, strike routes Cutset
	}
}

// selectRandom picks count distinct vertices uniformly from the seeded
// generator — the baseline comparable to the paper's random churn, but on
// the adversary's schedule.
func selectRandom(s *snapshot.Snapshot, count int, rng *rand.Rand) []int {
	return rng.Perm(s.N())[:count]
}

// selectDegree picks the count vertices with the largest total degree
// (out plus in), ties broken by vertex index so runs are deterministic.
func selectDegree(s *snapshot.Snapshot, count int) []int {
	in := s.Graph.InDegrees()
	order := make([]int, s.N())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		da := s.Graph.OutDegree(order[a]) + in[order[a]]
		db := s.Graph.OutDegree(order[b]) + in[order[b]]
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})
	return order[:count]
}

// selectCutsetSlots picks vertices on a minimum vertex cut of the
// stable-slot reconnaissance capture — the nodes whose removal the
// paper's own metric identifies as optimal (Equation 2's compromised
// set). The flow engine binds the slot graph with its compaction map —
// incrementally across strikes, since slot identity survives the
// adversary's own removals and the interleaved churn — and GraphCut
// answers in dense rank numbering, which is exactly the victim-indexing
// space of the capture's Addrs/IDs. The cut is deterministic because the
// engine's MinPair is scheduling-independent. A cut smaller than count
// is topped up with the highest-degree remaining vertices; a graph with
// no usable cut (complete, already disconnected beyond repair, or a
// sample with no evaluable pair) falls back to the degree strategy
// entirely.
func (e *Engine) selectCutsetSlots(s *snapshot.SlotSnapshot, count int) []int {
	if count > s.N() {
		count = s.N()
	}
	e.connBinder.BindNextSlots(s.Graph, s.Order)
	cut, _, ok, err := e.conn.GraphCut(connectivity.Query{
		SampleFraction: e.cfg.SampleFraction,
	})
	if err != nil || !ok || len(cut) == 0 {
		return selectDegreeRanks(s, count)
	}
	if len(cut) >= count {
		return cut[:count] // GraphCut returns sorted vertices: deterministic
	}
	picked := make(map[int]bool, count)
	out := make([]int, 0, count)
	for _, v := range cut {
		picked[v] = true
		out = append(out, v)
	}
	for _, v := range selectDegreeRanks(s, s.N()) {
		if len(out) == count {
			break
		}
		if !picked[v] {
			picked[v] = true
			out = append(out, v)
		}
	}
	return out
}

// selectDegreeRanks mirrors selectDegree on a slot capture: ranks
// ordered by total slot-graph degree (out plus in), ties broken by rank
// — the same ordering selectDegree produces on the dense capture, since
// rank numbering IS the dense numbering.
func selectDegreeRanks(s *snapshot.SlotSnapshot, count int) []int {
	in := s.Graph.InDegrees()
	order := make([]int, s.N())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := s.Order[order[a]], s.Order[order[b]]
		da := s.Graph.OutDegree(sa) + in[sa]
		db := s.Graph.OutDegree(sb) + in[sb]
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})
	return order[:count]
}

// selectEclipse picks the count vertices whose identifiers are closest to
// the target under the XOR metric, erasing the nodes responsible for the
// target's keyspace region.
func (e *Engine) selectEclipse(s *snapshot.Snapshot, count int) []int {
	if e.target.IsZeroValue() {
		e.target = id.Hash(s.IDs[0].Bits(), []byte(eclipseTargetLabel))
	}
	order := make([]int, s.N())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		va, vb := order[a], order[b]
		if s.IDs[va].CloserTo(e.target, s.IDs[vb]) {
			return true
		}
		if s.IDs[vb].CloserTo(e.target, s.IDs[va]) {
			return false
		}
		return va < vb // identical distance is impossible for distinct IDs
	})
	return order[:count]
}
