package scenario

import (
	"testing"
	"time"

	"kadre/internal/churn"
	"kadre/internal/connectivity"
)

// TestRunGovernanceInvisibleToResults pins the runner-level governance
// contract: a drain-churn run (population shrinks, so the slot table
// accumulates tombstones and the policy fires) produces exactly the
// same measured points with governance on (the default) and explicitly
// off — only the maintenance counters differ.
func TestRunGovernanceInvisibleToResults(t *testing.T) {
	cfg := tinyConfig("governed", 11)
	cfg.Churn = churn.Rate0_1
	cfg.ChurnPhase = 25 * time.Minute
	// An aggressive threshold so compaction fires in a tiny run.
	cfg.Governance = connectivity.GovernancePolicy{MaxSlotSlack: 0.2}
	governed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	off := cfg
	off.Name = "ungoverned"
	off.Governance = connectivity.GovernancePolicy{MaxSlotSlack: -1}
	plain, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}

	if governed.SlotCompactions == 0 {
		t.Fatalf("drain churn under an aggressive policy never compacted the slot table: %+v", governed)
	}
	if plain.SlotCompactions != 0 {
		t.Fatalf("disabled governance performed maintenance: %+v", plain)
	}
	if len(governed.Points) != len(plain.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(governed.Points), len(plain.Points))
	}
	for i := range governed.Points {
		if governed.Points[i] != plain.Points[i] {
			t.Fatalf("point %d differs under governance: %+v vs %+v",
				i, governed.Points[i], plain.Points[i])
		}
	}
	if governed.ChurnAdded != plain.ChurnAdded || governed.ChurnRemoved != plain.ChurnRemoved ||
		governed.Network != plain.Network {
		t.Fatalf("simulation outcome differs under governance: %+v vs %+v", governed, plain)
	}
	// The governed run's footprint reading must be plausible.
	if governed.SlotUtilization <= 0 || governed.SlotUtilization > 1 {
		t.Fatalf("implausible slot utilization %v", governed.SlotUtilization)
	}
}

// TestConfigDefaultsGovernance pins the opt-out semantics: the zero
// value takes the default policy, explicit values pass through, and a
// negative threshold disables it.
func TestConfigDefaultsGovernance(t *testing.T) {
	cfg := tinyConfig("defaults", 1).WithDefaults()
	if cfg.Governance != connectivity.DefaultGovernance() {
		t.Fatalf("zero governance defaulted to %+v", cfg.Governance)
	}
	custom := tinyConfig("custom", 1)
	custom.Governance = connectivity.GovernancePolicy{MaxSlotSlack: -1}
	got := custom.WithDefaults().Governance
	if got != custom.Governance {
		t.Fatalf("explicit governance rewritten to %+v", got)
	}
	if got.SlotCompactionDue(100, 1) {
		t.Fatal("negative MaxSlotSlack still triggers slot compaction")
	}
}
