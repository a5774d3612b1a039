package scenario

import (
	"testing"
	"time"

	"kadre/internal/simnet"
	"kadre/internal/stats"
	"kadre/internal/workload"
)

// Integration tests asserting the paper's qualitative findings at test-
// friendly scale. Each test is one claim from §5/§6 of the paper; the
// benches in bench_test.go report the same quantities as metrics.

// findingConfig is the shared base: 50 nodes, fast phases.
func findingConfig(name string, seed int64, k int) Config {
	return Config{
		Name: name, Seed: seed, Size: 50, K: k, Staleness: 1,
		Setup: 10 * time.Minute, Stabilize: 30 * time.Minute,
		SnapshotInterval: 10 * time.Minute, SampleFraction: 0.08,
	}
}

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// skipIfShort gates the full-simulation finding tests out of -short runs
// (notably CI's race-detector pass, where each would take tens of
// seconds); the unit and determinism tests still cover the machinery.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("full-simulation finding test; skipped with -short")
	}
}

func minAt(t *testing.T, r *Result, at time.Duration) float64 {
	t.Helper()
	v, ok := r.MinSeries().At(at)
	if !ok {
		t.Fatalf("no sample at %v", at)
	}
	return v
}

// Finding (§6): "the network connectivity kappa of Kademlia strongly
// correlates with the bucket size k".
func TestFindingConnectivityTracksK(t *testing.T) {
	skipIfShort(t)
	var stabilized []float64
	ks := []int{5, 10, 20}
	for i, k := range ks {
		cfg := findingConfig("kcorr", int64(10+i), k)
		cfg.Traffic = true
		res := mustRun(t, cfg)
		stabilized = append(stabilized, minAt(t, res, cfg.ChurnStart()))
	}
	for i := 1; i < len(stabilized); i++ {
		if stabilized[i] < stabilized[i-1] {
			t.Fatalf("min connectivity not monotone in k: k=%v -> %v", ks, stabilized)
		}
	}
	// And roughly kappa ~ k for the settled middle value.
	if stabilized[1] < float64(ks[1])-3 {
		t.Fatalf("kappa(k=10) = %v, far below k", stabilized[1])
	}
}

// Finding (§5.5.2): "the data traffic results in an overall improved
// connectivity" and reaches k-level connectivity earlier.
func TestFindingTrafficImprovesConnectivity(t *testing.T) {
	skipIfShort(t)
	quiet := findingConfig("notraffic", 20, 10)
	busy := findingConfig("traffic", 20, 10)
	busy.Traffic = true
	rq, rb := mustRun(t, quiet), mustRun(t, busy)
	// Compare the mean minimum connectivity over the whole run.
	mq := stats.Mean(rq.MinSeries().Values())
	mb := stats.Mean(rb.MinSeries().Values())
	if mb < mq {
		t.Fatalf("traffic lowered mean min connectivity: %.2f (traffic) vs %.2f (none)", mb, mq)
	}
}

// Finding (§5.5.5 / Table 2): stronger churn lowers the churn-phase mean
// of the minimum connectivity.
func TestFindingStrongChurnDepressesMin(t *testing.T) {
	skipIfShort(t)
	mild := findingConfig("churn11", 30, 10)
	mild.Traffic = true
	mild.Churn = workload.Churn1_1
	mild.ChurnPhase = 40 * time.Minute
	wild := mild
	wild.Name = "churn1010"
	wild.Churn = workload.Churn10_10
	rm, rw := mustRun(t, mild), mustRun(t, wild)
	meanMild := rm.ChurnWindowSummary().Mean
	meanWild := rw.ChurnWindowSummary().Mean
	if meanWild > meanMild+1 {
		t.Fatalf("10/10 churn did not depress min connectivity: %.2f vs %.2f under 1/1",
			meanWild, meanMild)
	}
}

// Finding (Fig. 12 / §6): "message loss ... actually increases the
// Kademlia network connectivity" (staleness 1, no churn).
func TestFindingLossRaisesConnectivity(t *testing.T) {
	skipIfShort(t)
	clean := findingConfig("lossnone", 40, 10)
	clean.Traffic = true
	clean.ChurnPhase = 40 * time.Minute // observation
	lossy := clean
	lossy.Name = "losshigh"
	lossy.Loss = simnet.LossHigh
	rc, rl := mustRun(t, clean), mustRun(t, lossy)
	endClean := minAt(t, rc, rc.Config.Total())
	endLossy := minAt(t, rl, rl.Config.Total())
	if endLossy < endClean {
		t.Fatalf("high loss lowered final min connectivity: %v vs %v clean", endLossy, endClean)
	}
}

// Finding (§5.8.2): the greater staleness limit damps the loss-driven
// connectivity gain.
func TestFindingStalenessDampsLossGain(t *testing.T) {
	skipIfShort(t)
	s1 := findingConfig("s1", 50, 10)
	s1.Traffic = true
	s1.Loss = simnet.LossHigh
	s1.ChurnPhase = 40 * time.Minute
	s5 := s1
	s5.Name = "s5"
	s5.Staleness = 5
	r1, r5 := mustRun(t, s1), mustRun(t, s5)
	end1 := minAt(t, r1, r1.Config.Total())
	end5 := minAt(t, r5, r5.Config.Total())
	if end5 > end1+3 {
		t.Fatalf("s=5 did not damp the loss gain: %v vs %v with s=1", end5, end1)
	}
}

// Finding (§5.7): bit-length 80 vs 160 shows no significant difference.
func TestFindingBitLengthIrrelevant(t *testing.T) {
	skipIfShort(t)
	b160 := findingConfig("b160", 60, 10)
	b160.Traffic = true
	b80 := b160
	b80.Name = "b80"
	b80.Bits = 80
	r160, r80 := mustRun(t, b160), mustRun(t, b80)
	m160 := stats.Mean(r160.MinSeries().Values())
	m80 := stats.Mean(r80.MinSeries().Values())
	diff := m160 - m80
	if diff < 0 {
		diff = -diff
	}
	// "No significant difference": within half of k.
	if diff > 5 {
		t.Fatalf("bit-length changed mean min connectivity: b=160 %.2f vs b=80 %.2f", m160, m80)
	}
}

// Finding (§5.5.1): in the 0/1 churn phase the minimum connectivity first
// rises above the stabilized level (leaving nodes free bucket slots and
// the network re-wires), before the shrinking size pulls it down.
func TestFindingDrainChurnTransientRise(t *testing.T) {
	skipIfShort(t)
	cfg := findingConfig("drainrise", 70, 10)
	cfg.Traffic = true
	cfg.Churn = workload.Churn0_1
	cfg.ChurnPhase = 35 * time.Minute
	cfg.SnapshotInterval = 5 * time.Minute
	res := mustRun(t, cfg)
	base := minAt(t, res, cfg.ChurnStart())
	peak := stats.Max(res.MinSeries().Window(cfg.ChurnStart(), cfg.Total()).Values())
	if peak < base {
		t.Fatalf("min connectivity never rose during drain churn: base %v, churn peak %v", base, peak)
	}
}
