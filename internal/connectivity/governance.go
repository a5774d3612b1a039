package connectivity

// GovernancePolicy bounds the long-run memory of churn-heavy pipelines.
// The stable-slot table only ever grows to the historical peak
// population: departed nodes leave vacant slots behind, and under
// sustained membership churn those accumulate. The policy sets the
// threshold at which the snapshot layer's SlotMap trades one compaction —
// a renumbering of the live slots, after which results stay
// bit-identical — for a bounded footprint.
//
// The threshold is relative to the LIVE population, so a policy-driven
// pipeline settles into amortized-constant maintenance: each compaction
// buys churn proportional to the live size before the next one is due.
type GovernancePolicy struct {
	// MaxSlotSlack triggers a slot-table compaction once the vacant slot
	// count exceeds MaxSlotSlack times the live population. <= 0 disables
	// slot governance.
	MaxSlotSlack float64
}

// DefaultGovernance is the policy the scenario runner installs when the
// caller does not choose one: compact when vacant slots outweigh half the
// live population. At that threshold a compaction shrinks the table by a
// third, so maintenance cost stays a constant fraction of the churn that
// caused it while the table never exceeds ~1.5x the live population.
func DefaultGovernance() GovernancePolicy {
	return GovernancePolicy{MaxSlotSlack: 0.5}
}

// Enabled reports whether the policy triggers any maintenance at all.
func (p GovernancePolicy) Enabled() bool {
	return p.MaxSlotSlack > 0
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

// The four methods below remain only because bench/traced.go, the
// benchmark's replay of the scenario runner, still calls them; nothing
// outside bench/ may. They go when the benchmark stops calling them.

// NewEngine is MustNewEngine with an error result, which is always nil.
// Kept only for bench/traced.go; call MustNewEngine.
func NewEngine(opts EngineOptions) (*Engine, error) {
	return MustNewEngine(opts), nil
}

// SetGovernance does nothing: the engine holds no store a policy could
// govern. Kept only for bench/traced.go.
func (e *Engine) SetGovernance(GovernancePolicy) {}

// Maintain does nothing and returns 0, the number of stores it
// rebuilt: the engine holds none. Kept only for bench/traced.go.
func (e *Engine) Maintain() int { return 0 }

// RebindFallbacks returns 0: a RebindSlots patches nothing, so nothing
// can fall back. Kept only for bench/traced.go.
func (e *Engine) RebindFallbacks() int { return 0 }
