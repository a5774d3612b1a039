//go:build slowtest

package churntest

import (
	"testing"

	"kadre/internal/connectivity"
)

// TestDifferentialChurnOracleLong is the nightly-length oracle: longer
// traces on larger networks, beyond what the PR gate affords. Build with
// -tags slowtest (the nightly CI job runs it under -race).
func TestDifferentialChurnOracleLong(t *testing.T) {
	for _, tc := range []Options{
		{Seed: 11, Initial: 80, Steps: 150, Degree: 8},
		{Seed: 12, Initial: 120, Steps: 100, Degree: 10},
		{Seed: 13, Initial: 60, Steps: 250, Degree: 6},
		{Seed: 14, Initial: 40, Steps: 200, Degree: 5, SampleFraction: 1.0},
		// Membership-heavy soak: long trace over a small network, so the
		// slot table recycles heavily and most steps are joins, leaves or
		// strikes rebinding incrementally.
		{Seed: 15, Initial: 30, Steps: 300, Degree: 6, MembershipHeavy: true},
	} {
		stats, err := Run(tc)
		if err != nil {
			t.Fatalf("seed %d: %v", tc.Seed, err)
		}
		t.Logf("seed %d: %+v", tc.Seed, stats)
		if stats.IncrementalBinds == 0 || stats.FullBinds == 0 {
			t.Fatalf("seed %d: trace did not exercise both binding paths: %+v", tc.Seed, stats)
		}
		if stats.MembershipRebinds == 0 {
			t.Fatalf("seed %d: no membership event rebound incrementally: %+v", tc.Seed, stats)
		}
	}
}

// TestLongChurnSoakMemoryBounded is the nightly long-run memory bound:
// a membership-heavy trace of 500+ snapshots under the default
// governance policy, after which the slot-table length must sit within
// 2x its value at the peak-population steady state. Without governance
// the table stays pinned at the historical peak however far the
// population shrinks, which is exactly the unbounded residue this bound
// regresses. The differential comparisons inside Run simultaneously hold
// every answer across every compaction event to the from-scratch
// reference at jobs=1 and jobs=8.
func TestLongChurnSoakMemoryBounded(t *testing.T) {
	for _, tc := range []Options{
		{Seed: 41, Initial: 40, Steps: 500, Degree: 5, MembershipHeavy: true, Governance: connectivity.DefaultGovernance()},
		{Seed: 42, Initial: 24, Steps: 600, Degree: 4, MembershipHeavy: true, Governance: connectivity.DefaultGovernance()},
	} {
		stats, err := Run(tc)
		if err != nil {
			t.Fatalf("seed %d: %v", tc.Seed, err)
		}
		t.Logf("seed %d: %+v", tc.Seed, stats)
		if stats.SlotCompactions == 0 {
			t.Fatalf("seed %d: soak triggered no slot compaction (stats %+v)", tc.Seed, stats)
		}
		if stats.FinalSlotLen > 2*stats.SlotLenAtPeak {
			t.Fatalf("seed %d: final slot table %d exceeds 2x the peak-population footprint %d (stats %+v)",
				tc.Seed, stats.FinalSlotLen, stats.SlotLenAtPeak, stats)
		}
	}
}
