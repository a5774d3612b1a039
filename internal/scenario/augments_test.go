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
// path solver's warm start and greedy fill: on the 150-node churn
// experiment they leave 3.9 (k = 10) and 4.0 (k = 20) augmenting-path
// searches per exact Avg pair. The counters are deterministic, so the
// bounds sit 9-14 % above those and still fail a solver that loses the
// warm start (4.5 and 5.5 searches per pair) or the fill (13 and 16) —
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
	maxPerPair := map[int]float64{10: 4.25, 20: 4.6}
	for _, cfg := range exp.Configs {
		cfg.Workers = 1
		_, bound, err := RunBoundCtx(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng := bound.Engine
		pairs, searches := eng.SweepExact(), eng.SweepAugments()
		if pairs == 0 {
			t.Fatalf("%s: no exact pair was swept", cfg.Name)
		}
		perPair := float64(searches) / float64(pairs)
		t.Logf("%s: %d searches over %d exact pairs (%.2f per pair)", cfg.Name, searches, pairs, perPair)
		if perPair > maxPerPair[cfg.K] {
			t.Errorf("%s: %.2f searches per exact pair, want <= %.2f", cfg.Name, perPair, maxPerPair[cfg.K])
		}
	}
}
