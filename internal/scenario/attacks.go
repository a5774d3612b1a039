package scenario

import (
	"time"

	"kadre/internal/attack"
)

// The adversary's defaults. The catalogue's attack experiment
// (specs/attack.json) is the degradation-curve family the paper's
// random-churn simulations hint at but never run: every strategy attacks
// the *same* small network (identical seed, so identical topology until
// the attack window opens), so the curves differ only by victim-selection
// policy. It runs at k = 5, the paper's sparsest bucket size: with larger
// k the small networks are near-complete and every strategy looks the
// same. Like Simulations A/B it carries no data traffic: active lookups
// heal routing tables faster than any budgeted adversary can cut them,
// which would measure the repair process rather than the attack.

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
// a spec file's (the catalogue's attack experiment included) or a
// kadserve query's block — completes through it in ResolveRun. Unset
// (non-positive) fields of a take the canonical adversary for a network
// of the given size attacked through the given churn window: strikes
// every attackInterval, a budget of half the nodes (enough to shatter any
// strategy's target structure while leaving a measurable remnant), and
// the per-strike kill count that just exhausts the budget over the
// strikes that fit the window.
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
