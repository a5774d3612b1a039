package scenario

import (
	"context"
	"testing"

	"kadre/internal/workload"
)

// churn150Spec is the 150-node churn experiment: no traffic, churn 1/1
// for 120 minutes, a snapshot every 10 minutes, c = 0.1, k 10 and 20.
const churn150Spec = `{
  "version": 1,
  "id": "churn150",
  "scale": "tiny",
  "defaults": {
    "size": 150,
    "staleness": 1,
    "churn": "1/1",
    "churn_minutes": 120,
    "traffic": false,
    "snapshot_minutes": 10,
    "sample_fraction": 0.1
  },
  "runs": [
    {"name": "Churn/k=10", "k": 10, "seed_offset": 0},
    {"name": "Churn/k=20", "k": 20, "seed_offset": 1}
  ]
}`

// TestExactPairsSearchesPerPair is the stopwatch-free guard of the exact
// path solver's warm start, greedy fill, sink order and search sink side:
// on the 150-node churn experiment they leave 2.26 (k = 10) and 1.89
// (k = 20) augmenting-path searches per exact Avg pair, which queue 68.6
// and 70.4 out-halves. The counters are deterministic, so the search
// bounds sit about 10 % above those and the visit bounds at 80; they
// still fail a sweep that scans sinks in rank order instead of along the
// similarity chain (3.88 and 4.03 searches), loses the warm start or the
// fill, or searches without the sink side (192 and 142 out-halves) —
// without timing anything. Two 150-node runs are long for the race pass,
// so -short skips it.
func TestExactPairsSearchesPerPair(t *testing.T) {
	if testing.Short() {
		t.Skip("two 150-node churn runs; the full pass runs them")
	}
	sp, err := workload.Decode([]byte(churn150Spec))
	if err != nil {
		t.Fatal(err)
	}
	exp, err := FromSpec(sp, TinyScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	maxSearches := map[int]float64{10: 2.5, 20: 2.1}
	maxVisits := map[int]float64{10: 80, 20: 80}
	for _, cfg := range exp.Configs {
		cfg.Workers = 1
		_, bound, err := RunBoundCtx(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng := bound.Engine
		pairs, searches, visits := eng.SweepExact(), eng.SweepAugments(), eng.SweepVisits()
		if pairs == 0 {
			t.Fatalf("%s: no exact pair was swept", cfg.Name)
		}
		perPair, visitsPerPair := float64(searches)/float64(pairs), float64(visits)/float64(pairs)
		t.Logf("%s: %d searches queueing %d out-halves over %d exact pairs (%.2f and %.1f per pair)",
			cfg.Name, searches, visits, pairs, perPair, visitsPerPair)
		if perPair > maxSearches[cfg.K] {
			t.Errorf("%s: %.2f searches per exact pair, want <= %.2f", cfg.Name, perPair, maxSearches[cfg.K])
		}
		if visitsPerPair > maxVisits[cfg.K] {
			t.Errorf("%s: %.1f out-halves queued per exact pair, want <= %.0f", cfg.Name, visitsPerPair, maxVisits[cfg.K])
		}
	}
}
