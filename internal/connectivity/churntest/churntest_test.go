package churntest

import (
	"testing"

	"kadre/internal/connectivity"
)

// TestDifferentialChurnOracle is the PR-gate harness: randomized churn
// traces (edge churn, joins, leaves, adversarial strikes) replayed
// through the incremental stable-slot engine at jobs=1 and jobs=8
// against the from-scratch reference, asserting identical
// Min/Avg/MinPair/cut answers at every step. Run itself asserts the
// binding-path expectations per step — the incremental path on EVERY
// step where the slot table did not grow, joins/leaves/strikes
// included — so this test only has to
// check that the traces exercised both paths and actually crossed
// membership changes incrementally. It runs under -race in CI; the
// slowtest-tagged variant replays longer traces on larger networks.
func TestDifferentialChurnOracle(t *testing.T) {
	for _, tc := range []Options{
		{Seed: 1, Initial: 24, Steps: 40, Degree: 4},
		{Seed: 2, Initial: 32, Steps: 30, Degree: 6},
		{Seed: 3, Initial: 8, Steps: 50, Degree: 3}, // tiny: hits n<=2 edge cases
	} {
		stats, err := Run(tc)
		if err != nil {
			t.Fatalf("seed %d: %v", tc.Seed, err)
		}
		t.Logf("seed %d: %+v", tc.Seed, stats)
		if stats.IncrementalBinds == 0 {
			t.Fatalf("seed %d: trace never took the incremental path (stats %+v)", tc.Seed, stats)
		}
		if stats.MembershipRebinds == 0 {
			t.Fatalf("seed %d: no join/leave/strike step rebound incrementally (stats %+v)", tc.Seed, stats)
		}
		if want := 1 + stats.SlotGrowthBinds; stats.FullBinds != want {
			t.Fatalf("seed %d: %d full binds, want %d (stats %+v)", tc.Seed, stats.FullBinds, want, stats)
		}
	}
}

// TestGovernedChurnOracle replays membership-heavy traces with an
// aggressive memory-governance policy, so slot compactions fire
// repeatedly inside the differential oracle — and
// every answer across every compaction event still matches the
// from-scratch reference at jobs=1 and jobs=8. The full-bind invariant
// extends to compaction boundaries: each governed slot compaction
// renumbers the vertex space and must cost exactly one full bind.
func TestGovernedChurnOracle(t *testing.T) {
	aggressive := connectivity.GovernancePolicy{MaxSlotSlack: 0.2}
	for _, tc := range []Options{
		{Seed: 21, Initial: 20, Steps: 60, Degree: 4, MembershipHeavy: true, Governance: aggressive},
		{Seed: 22, Initial: 28, Steps: 50, Degree: 5, MembershipHeavy: true, Governance: aggressive},
	} {
		stats, err := Run(tc)
		if err != nil {
			t.Fatalf("seed %d: %v", tc.Seed, err)
		}
		t.Logf("seed %d: %+v", tc.Seed, stats)
		if stats.SlotCompactions == 0 {
			t.Fatalf("seed %d: aggressive policy never compacted the slot table (stats %+v)", tc.Seed, stats)
		}
		if stats.CompactionBinds == 0 || stats.CompactionBinds > stats.SlotCompactions {
			t.Fatalf("seed %d: %d compaction binds for %d compactions (stats %+v)",
				tc.Seed, stats.CompactionBinds, stats.SlotCompactions, stats)
		}
		if stats.IncrementalBinds == 0 || stats.MembershipRebinds == 0 {
			t.Fatalf("seed %d: governance starved the incremental path (stats %+v)", tc.Seed, stats)
		}
	}
}

// TestUngovernedOracleReportsNoMaintenance pins the opt-in default: the
// zero policy performs no compactions and no compaction-forced full
// binds.
func TestUngovernedOracleReportsNoMaintenance(t *testing.T) {
	stats, err := Run(Options{Seed: 1, Initial: 24, Steps: 40, Degree: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SlotCompactions != 0 || stats.CompactionBinds != 0 {
		t.Fatalf("zero policy performed maintenance: %+v", stats)
	}
}

// TestOracleStableMembershipOnlyRebinds pins the binder contract from the
// other side: a trace with edge churn only (no joins, leaves or strikes
// after the first binding) must rebind incrementally at every step after
// the first.
func TestOracleStableMembershipOnlyRebinds(t *testing.T) {
	stats, err := Run(Options{Seed: 7, Initial: 20, Steps: 25, Degree: 4, edgeChurnOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FullBinds != 1 || stats.IncrementalBinds != stats.EdgeChurn-1 {
		t.Fatalf("stable membership: want 1 full bind and %d incremental, got %+v",
			stats.EdgeChurn-1, stats)
	}
}
