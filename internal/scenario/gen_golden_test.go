package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"kadre/internal/workload"
)

// genGoldenDoc byte-pins one generator's tiny run: the measured points,
// the workload, churn and traffic activity counters, and the event check
// (the network's rolling message hash and the events fired), so the
// connectivity numbers, the generator's membership/key-picking effect
// and the order in which the generators' events fire are all frozen.
type genGoldenDoc struct {
	Points         []churnGoldenPoint `json:"points"`
	WorkloadJoins  int                `json:"workload_joins"`
	WorkloadLeaves int                `json:"workload_leaves"`
	ChurnAdded     int                `json:"churn_added"`
	ChurnRemoved   int                `json:"churn_removed"`
	TrafficOps     int                `json:"traffic_ops"`
	Fingerprint    string             `json:"fingerprint"`
	Events         uint64             `json:"events"`
}

// genBase is the shared tiny scale for the per-generator fixtures: small
// enough to stay fast under -race, long enough that arrivals, session
// ends and trace events all land inside the run.
func genBase(name string, seed int64) Config {
	return Config{
		Name: name, Seed: seed, Size: 20, K: 5, Staleness: 1,
		Setup: 5 * time.Minute, Stabilize: 5 * time.Minute,
		ChurnPhase:       10 * time.Minute,
		SnapshotInterval: 5 * time.Minute,
		SampleFraction:   0.2,
		Workers:          2,
	}
}

// genConfigs returns one tiny config per workload generator. The trace
// fixture replays testdata/trace_tiny.jsonl through the same loader the
// spec path uses.
func genConfigs(t testing.TB) []Config {
	t.Helper()
	trace, err := workload.LoadTrace(filepath.Join("testdata", "trace_tiny.jsonl"))
	if err != nil {
		t.Fatal(err)
	}

	sessions := genBase("gen-sessions", 21)
	sessions.Gen = workload.Generators{
		Arrivals: &workload.ArrivalsSpec{RatePerMinute: 2},
		Sessions: &workload.SessionsSpec{Dist: "lognormal", MeanMinutes: 4, Sigma: 1.2},
	}

	diurnal := genBase("gen-diurnal", 22)
	diurnal.Gen = workload.Generators{
		Arrivals: &workload.ArrivalsSpec{
			RatePerMinute: 2,
			Diurnal:       &workload.DiurnalSpec{PeriodMinutes: 10, Amplitude: 0.8},
		},
		Sessions: &workload.SessionsSpec{Dist: "pareto", MinMinutes: 2, Alpha: 1.5},
	}

	zipf := genBase("gen-zipf", 23)
	zipf.Traffic = true
	zipf.Gen = workload.Generators{
		Popularity: &workload.PopularitySpec{ZipfS: 1.3},
	}

	flash := genBase("gen-flash", 24)
	flash.Gen = workload.Generators{
		FlashCrowds: []workload.FlashCrowdSpec{{
			AtMinutes: 12, Joins: 8, WindowMinutes: 2,
			Sessions: &workload.SessionsSpec{Dist: "pareto", MinMinutes: 1, Alpha: 1.5},
		}},
	}

	replay := genBase("gen-trace", 25)
	replay.Gen = workload.Generators{
		Trace: &workload.TraceSpec{Events: trace},
	}

	// Every generator in one run: paper churn, traffic, arrivals with
	// sessions, Zipf keys, a flash crowd and a trace. Churn and arrivals
	// tick on the same minutes. The trace acts at the churn start itself,
	// where its kernel-RNG draws (a random leave, a join's bootstrap) come
	// after churn's first tick only because churn is registered first.
	mixed := genBase("gen-mixed", 26)
	mixed.Churn = workload.Churn1_1
	mixed.Traffic = true
	mixed.Gen = workload.Generators{
		Arrivals:   &workload.ArrivalsSpec{RatePerMinute: 1},
		Sessions:   &workload.SessionsSpec{Dist: "lognormal", MeanMinutes: 5},
		Popularity: &workload.PopularitySpec{ZipfS: 1.5},
		FlashCrowds: []workload.FlashCrowdSpec{{
			AtMinutes: 15, Joins: 4, WindowMinutes: 2,
		}},
		Trace: &workload.TraceSpec{Events: []workload.TraceEvent{
			{TMin: 10, Op: "leave"},
			{TMin: 10, Op: "join", Node: "t"},
			{TMin: 17, Op: "leave", Node: "t"},
		}},
	}

	return []Config{sessions, diurnal, zipf, flash, replay, mixed}
}

// TestGoldenGenerators byte-pins a tiny run of every workload generator
// against its own fixture. Regenerate intentionally with:
//
//	go test ./internal/scenario -run Golden -update
func TestGoldenGenerators(t *testing.T) {
	for _, cfg := range genConfigs(t) {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Every generator fixture must exercise its generator: the
			// membership ones must join nodes, the popularity one must
			// skew a live traffic stream.
			if cfg.Gen.Popularity != nil {
				if res.TrafficOps == 0 {
					t.Fatal("popularity fixture ran no traffic")
				}
			} else if res.WorkloadJoins == 0 {
				t.Fatal("generator fixture performed no generative joins")
			}
			doc := genGoldenDoc{
				WorkloadJoins:  res.WorkloadJoins,
				WorkloadLeaves: res.WorkloadLeaves,
				ChurnAdded:     res.ChurnAdded,
				ChurnRemoved:   res.ChurnRemoved,
				TrafficOps:     res.TrafficOps,
				Fingerprint:    fmt.Sprintf("%016x", res.Fingerprint),
				Events:         res.Events,
			}
			for _, p := range res.Points {
				doc.Points = append(doc.Points, churnGoldenPoint{
					TMin: p.Time.Minutes(), N: p.N, Edges: p.Edges,
					Min: p.Min, Avg: p.Avg, Symmetry: p.Symmetry, SCC: p.SCC,
				})
			}
			got, err := json.MarshalIndent(doc, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			golden := filepath.Join("testdata", cfg.Name+".golden.json")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("generator run drifted from golden fixture %s (run with -update after intentional changes):\n--- got ---\n%s--- want ---\n%s",
					golden, got, want)
			}
		})
	}
}

// TestGenJobsDeterminism runs every generator config at jobs=1 and
// jobs=8: points and workload counters must be bitwise identical
// regardless of worker scheduling. Run under -race in CI, this pins the
// per-run stream-derivation contract — generator RNGs never touch shared
// state.
func TestGenJobsDeterminism(t *testing.T) {
	cfgs := genConfigs(t)
	seq, par := runJobs(t, cfgs, 1), runJobs(t, cfgs, 8)
	for i := range cfgs {
		if !reflect.DeepEqual(seq[i].Points, par[i].Points) {
			t.Fatalf("%s: jobs=1 and jobs=8 points differ:\n%+v\nvs\n%+v",
				cfgs[i].Name, seq[i].Points, par[i].Points)
		}
		if seq[i].WorkloadJoins != par[i].WorkloadJoins || seq[i].WorkloadLeaves != par[i].WorkloadLeaves {
			t.Fatalf("%s: workload counters differ: %d/%d vs %d/%d", cfgs[i].Name,
				seq[i].WorkloadJoins, seq[i].WorkloadLeaves, par[i].WorkloadJoins, par[i].WorkloadLeaves)
		}
		if seq[i].TrafficOps != par[i].TrafficOps {
			t.Fatalf("%s: traffic ops differ: %d vs %d", cfgs[i].Name, seq[i].TrafficOps, par[i].TrafficOps)
		}
	}
}
