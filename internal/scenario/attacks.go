package scenario

import (
	"fmt"
	"time"

	"kadre/internal/attack"
)

// Attack-experiment presets: the degradation-curve family the paper's
// random-churn simulations hint at but never run. Every strategy attacks
// the *same* network (identical seed, so identical topology and traffic
// until the attack window opens); the curves therefore differ only by
// victim-selection policy, making the strategies directly comparable.

// attackStrikes is the number of strikes the default adversary schedules
// across the scale's long churn window.
const attackStrikes = 8

// attackInterval is the default strike interval at this scale: the long
// churn window split into attackStrikes, at least a minute.
func (s Scale) attackInterval() time.Duration {
	return max(s.ChurnLong/attackStrikes, time.Minute)
}

// strikesIn returns how many strikes fit in an attack window of the
// given length: the first fires half an interval in (see Config.Attack),
// the rest every interval while still inside the window.
func strikesIn(window, interval time.Duration) int {
	armed := window - interval/2
	if interval <= 0 || armed <= 0 {
		return 0
	}
	return int((armed + interval - 1) / interval) // ceil(armed/interval)
}

// adversary is the one adversary-defaulting rule: every declared attack —
// a spec file's or a kadserve query's block (ResolveRun), the preset
// experiment and kadattack's -budget/-interval (AttackExperiment) —
// completes through it. Unset (non-positive) fields of a take the
// canonical adversary for a network of the given size attacked through
// the given churn window: strikes every attackInterval, a budget of half
// the nodes (enough to shatter any strategy's target structure while
// leaving a measurable remnant), and the per-strike kill count that just
// exhausts the budget over the strikes that fit the window.
func (s Scale) adversary(a attack.Config, size int, window time.Duration) attack.Config {
	if a.Interval <= 0 {
		a.Interval = s.attackInterval()
	}
	if a.Budget <= 0 {
		a.Budget = size / 2
	}
	if a.Kills <= 0 {
		strikes := max(strikesIn(window, a.Interval), 1)
		a.Kills = (a.Budget + strikes - 1) / strikes
	}
	return a
}

// AttackExperiment builds the strategy-comparison experiment: one run per
// strategy on the small network, all sharing one seed; budget and
// interval override the default adversary's when positive. Like the
// paper's Simulations A/B the runs carry no data traffic: active lookups
// heal routing tables faster than any budgeted adversary can cut them,
// which measures the repair process rather than the attack. Without
// traffic the curves isolate the structural damage each strategy inflicts.
func (s Scale) AttackExperiment(seed int64, strategies []attack.Strategy, budget int, interval time.Duration) Experiment {
	exp := Experiment{
		ID:    "attack",
		Title: "targeted node removal: connectivity degradation by strategy",
	}
	for _, st := range strategies {
		cfg := s.base(fmt.Sprintf("Attack/%s", st), seed, s.Small)
		// k = 5 (the paper's sparsest bucket size): with larger k the
		// small networks are near-complete and every strategy looks the
		// same; at k = 5 the topology has hubs, bottlenecks, and thin
		// keyspace regions for the strategies to exploit.
		cfg.K = 5
		cfg.Staleness = 1
		cfg.Traffic = false
		cfg.ChurnPhase = s.ChurnLong
		// The preset pins its snapshots to the default strike cadence, so
		// curves under different interval overrides share their time axis.
		cfg.SnapshotInterval = s.attackInterval()
		cfg.Attack = s.adversary(attack.Config{Strategy: st, Budget: budget, Interval: interval}, s.Small, cfg.ChurnPhase)
		exp.Configs = append(exp.Configs, cfg)
	}
	return exp
}
