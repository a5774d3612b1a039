package attack

import (
	"sort"

	"kadre/internal/connectivity"
	"kadre/internal/id"
	"kadre/internal/snapshot"
)

// eclipseTargetLabel seeds the default Eclipse target: hashing a fixed
// label keeps unconfigured eclipse runs deterministic.
const eclipseTargetLabel = "kadre/attack/eclipse-target"

// selectVictims returns up to count distinct ranks of s to remove,
// according to the engine's strategy. Every strategy selects from the one
// dense reconnaissance capture — ranks index its Addrs/IDs — and is
// deterministic given the capture (and, for Random, the simulator's
// seeded generator), so attack runs replay exactly under a seed.
func (e *Engine) selectVictims(s *snapshot.Snapshot, count int) []int {
	if count > s.N() {
		count = s.N()
	}
	if count <= 0 {
		return nil
	}
	switch e.cfg.Strategy {
	case Random:
		// Uniform from the seeded generator — the baseline comparable to
		// the paper's random churn, but on the adversary's schedule.
		return e.sim.Rand().Perm(s.N())[:count]
	case Degree:
		return selectDegree(s, count)
	case Cutset:
		return e.selectCutset(s, count)
	case Eclipse:
		return e.selectEclipse(s, count)
	default:
		return nil // unreachable: NewEngine validates the strategy
	}
}

// selectDegree picks the count ranks with the largest total degree (out
// plus in), ties broken by rank so runs are deterministic.
func selectDegree(s *snapshot.Snapshot, count int) []int {
	in := s.Graph.InDegrees()
	order := make([]int, s.N())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		va, vb := order[a], order[b]
		da := s.Graph.OutDegree(va) + in[va]
		db := s.Graph.OutDegree(vb) + in[vb]
		if da != db {
			return da > db
		}
		return va < vb
	})
	return order[:count]
}

// selectCutset picks vertices on a minimum vertex cut of the capture —
// the nodes whose removal the paper's own metric identifies as optimal
// (Equation 2's compromised set). It is the only strategy that binds the
// flow engine, and it binds each capture in full, so GraphCut answers in
// the capture's rank numbering. The cut is deterministic because the
// engine's MinPair is scheduling-independent. A cut smaller than count
// is topped up with the highest-degree remaining vertices; a graph with
// no usable cut (complete, already disconnected beyond repair, or a
// sample with no evaluable pair) falls back to the degree strategy
// entirely.
func (e *Engine) selectCutset(s *snapshot.Snapshot, count int) []int {
	e.conn.Bind(s.Graph)
	cut, _, ok, err := e.conn.GraphCut(connectivity.Query{
		SampleFraction: e.cfg.SampleFraction,
	})
	if err != nil || !ok || len(cut) == 0 {
		return selectDegree(s, count)
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
	for _, v := range selectDegree(s, s.N()) {
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
