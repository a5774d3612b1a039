package connectivity

import "kadre/internal/maxflow"

// GovernancePolicy bounds the long-run memory of churn-heavy pipelines.
// Incremental rebinding never shrinks anything: removed edges tombstone
// their arc slots, slack-overflow relocations strand dead regions at the
// arc-array tail, and the stable-slot table only ever grows to the
// historical peak population. Under sustained membership churn those
// residues accumulate without bound. The policy sets the two thresholds
// at which the engine (and the snapshot layer's SlotMap) trade one
// re-densification — a full rebuild of the compacted layout from live
// entries, after which results stay bit-identical — for a bounded
// footprint.
//
// Both thresholds are relative to the LIVE footprint, so a policy-driven
// pipeline settles into amortized-constant maintenance: each compaction
// buys churn proportional to the live size before the next one is due.
type GovernancePolicy struct {
	// MaxDeadFrac triggers a solver arc-store re-densify once the dead
	// fraction — tombstoned plus relocation-stranded arcs over the total
	// arc array — exceeds it. <= 0 disables arc-store governance.
	MaxDeadFrac float64
	// MaxSlotSlack triggers a slot-table compaction once the vacant slot
	// count exceeds MaxSlotSlack times the live population. <= 0 disables
	// slot governance.
	MaxSlotSlack float64
}

// DefaultGovernance is the policy the scenario runner installs when the
// caller does not choose one: compact when garbage outweighs half the
// live footprint. At that threshold a re-densify halves the structure,
// so maintenance cost stays a constant fraction of the churn that
// caused it while memory never exceeds ~1.5x the live working set.
func DefaultGovernance() GovernancePolicy {
	return GovernancePolicy{MaxDeadFrac: 0.5, MaxSlotSlack: 0.5}
}

// Enabled reports whether the policy triggers any maintenance at all.
func (p GovernancePolicy) Enabled() bool {
	return p.MaxDeadFrac > 0 || p.MaxSlotSlack > 0
}

// SlotCompactionDue reports whether a slot table with slotLen slots and
// live occupants has crossed the policy's slack threshold. The caller
// owns the compaction itself (snapshot.SlotMap.Compact) because slot
// renumbering invalidates every consumer of the old numbering — it must
// happen between captures, never under a live binding.
func (p GovernancePolicy) SlotCompactionDue(slotLen, live int) bool {
	if p.MaxSlotSlack <= 0 {
		return false
	}
	vacant := slotLen - live
	return float64(vacant) > p.MaxSlotSlack*float64(live)
}

// MemoryStats aggregates the arc-store footprint of the engine's primary
// solvers: worker 0's sweep solver plus, once a cut query built it, the
// cut-mode network. Per-worker totals would vary with the worker count
// (workers beyond the first are created lazily and see different tombstone
// histories), so only these two — which exist under every configuration and
// observe every binding — feed the deterministic diagnostics that end up
// in sweep JSON.
type MemoryStats struct {
	// Arcs is the summed arc-array length across the primary solvers.
	Arcs int
	// LiveArcs is the summed count of arcs still backing graph edges.
	LiveArcs int
	// DeadArcs is the summed tombstone + stranded-region count.
	DeadArcs int
	// Relocations is the summed count of slack-overflow region
	// relocations since the last re-densify.
	Relocations int
}

// DeadArcFrac returns the dead fraction of the primary arc footprint.
// Only the sweep solver contributes dead arcs: the cut network is
// re-initialised, never patched.
func (m MemoryStats) DeadArcFrac() float64 {
	if m.Arcs == 0 {
		return 0
	}
	return float64(m.DeadArcs) / float64(m.Arcs)
}

// SetGovernance installs the memory-governance policy. The zero policy
// (the default for a fresh engine) disables maintenance entirely;
// Maintain then reports nothing to do.
func (e *Engine) SetGovernance(p GovernancePolicy) { e.gov = p }

// Maintain checks every worker's sweep solver against the governance
// policy and re-densifies the arc stores over the MaxDeadFrac threshold,
// returning how many it rebuilt. Re-densification preserves capacities
// and traversal order for live arcs, so every answer after a Maintain is
// bit-identical to the un-maintained engine — the governed churn oracle
// holds both paths to that contract. The cut-mode network takes no turn:
// it is only ever re-initialised in place, so it holds no dead arcs.
//
// Call it between snapshots: the work is proportional to the compacted
// stores and stays off the Analyze/RebindSlots hot path, whose steady
// state remains allocation-free.
func (e *Engine) Maintain() int {
	if e.gov.MaxDeadFrac <= 0 {
		return 0
	}
	total := 0
	for i := range e.workers {
		s := e.workers[i].solver
		if s == nil || s.ArcStats().DeadFrac() <= e.gov.MaxDeadFrac {
			continue
		}
		s.Compact()
		total++
		if i == 0 {
			e.redensifies++
		}
	}
	return total
}

// Redensifies reports how many times Maintain has re-densified worker 0's
// sweep solver over the engine's lifetime. Like MemoryStats it ignores
// the other workers, so it is identical for every worker count — the form
// the scenario results and sweep JSON expose.
func (e *Engine) Redensifies() int { return e.redensifies }

// MemoryStats reports the primary solvers' current arc-store footprint.
func (e *Engine) MemoryStats() MemoryStats {
	var m MemoryStats
	add := func(s maxflow.Solver) {
		if s == nil {
			return
		}
		st := s.ArcStats()
		m.Arcs += st.Arcs
		m.LiveArcs += st.Live
		m.DeadArcs += st.Tombstones + st.Dead
		m.Relocations += st.Relocations
	}
	if len(e.workers) > 0 {
		add(e.workers[0].solver)
	}
	if e.cutSolver != nil {
		add(e.cutSolver)
	}
	return m
}

// MaxSolverArcs reports the largest arc-array length across ALL of the
// engine's solvers, not just the primary ones — the bound the long-churn
// soak asserts against peak-population footprint. Worker-count-dependent
// by construction; diagnostics only, never serialized.
func (e *Engine) MaxSolverArcs() int {
	max := 0
	consider := func(s maxflow.Solver) {
		if s == nil {
			return
		}
		if a := s.ArcStats().Arcs; a > max {
			max = a
		}
	}
	for i := range e.workers {
		consider(e.workers[i].solver)
	}
	if e.cutSolver != nil {
		consider(e.cutSolver)
	}
	return max
}
