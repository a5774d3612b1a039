package main

import (
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"kadre/internal/scenario"
	"kadre/internal/sweep"
	"kadre/internal/workload"
)

// benchmarkFile mirrors ../BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	var bf benchmarkFile
	if err := readJSONFile(filepath.Join("..", "BENCHMARK.json"), &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkJSONMatchesCatalogue holds BENCHMARK.json to the metric
// catalogue and the workload files: same names in the same order, same
// units, directions and bounds, and each workload's committed reason.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if strings.Join(bf.Command, " ") != "bash bench/run.sh" || len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Fatalf("command %v paths %v", bf.Command, bf.Paths)
	}
	check := func(kind string, got []benchmarkMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the catalogue %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the catalogue %+v", kind, i, g, d)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: bound of %s: file %v, catalogue %v", kind, d.Name, g.Bound, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: %s must not carry a bound", kind, d.Name)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)

	if len(bf.Workloads) != len(workloadKinds) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloadKinds))
	}
	for i, w := range workloadKinds {
		got := bf.Workloads[i]
		if got.Name != w.name {
			t.Fatalf("workload %d: %q in BENCHMARK.json, %q in the benchmark", i, got.Name, w.name)
		}
		var why string
		path := filepath.Join("workloads", w.name+".json")
		if w.kind == "serve" {
			sp, err := loadServeSpec(path)
			if err != nil {
				t.Fatal(err)
			}
			why = sp.Why
		} else {
			sp, err := workload.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			why = sp.Title
		}
		if why == "" || got.Why != why {
			t.Errorf("workload %s: why %q in BENCHMARK.json, %q in %s", w.name, got.Why, why, path)
		}
	}
}

// TestSimTrafficIsFigure6 pins sim-traffic's runs to the committed Sim E
// spec at tiny scale.
func TestSimTrafficIsFigure6(t *testing.T) {
	ours, err := workload.Load(filepath.Join("workloads", "sim-traffic.json"))
	if err != nil {
		t.Fatal(err)
	}
	theirs, err := workload.Load(filepath.Join("..", "specs", "figure6.json"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := scenario.FromSpec(ours, scenario.PaperScale, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenario.FromSpec(theirs, scenario.TinyScale, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Configs) != len(b.Configs) {
		t.Fatalf("%d runs vs %d", len(a.Configs), len(b.Configs))
	}
	for i := range a.Configs {
		ca, cb := a.Configs[i], b.Configs[i]
		if ca.Name != cb.Name || ca.Seed != cb.Seed || sweep.Fingerprint(ca) != sweep.Fingerprint(cb) {
			t.Errorf("run %d differs:\n%s seed %d %s\n%s seed %d %s", i,
				ca.Name, ca.Seed, sweep.Fingerprint(ca), cb.Name, cb.Seed, sweep.Fingerprint(cb))
		}
	}
}

// TestQuickSmoke runs every workload, timed and traced, over shrunken
// inputs, and holds the result line to the contract: exactly the four
// keys, and every metric BENCHMARK.json declares for the mode exactly
// once, with its unit and a finite value.
func TestQuickSmoke(t *testing.T) {
	bf := loadBenchmarkFile(t)
	start := time.Now()
	for _, w := range workloadKinds {
		digests := map[int]string{}
		for trace, declared := range [][]benchmarkMetric{bf.EndToEnd, bf.PerLayer} {
			r, err := measure(options{workload: w.name, seed: 1, seconds: 1, trace: trace, quick: true, dir: "."})
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d %v", w.name, trace, r.Correct, r.Attempted, r.Failed, r.Failures)
			}
			digests[trace] = r.ResultDigest

			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(r.resultLine()), &line); err != nil {
				t.Fatal(err)
			}
			if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
				t.Fatalf("%s trace %d: result line has keys %v", w.name, trace, line)
			}
			var metrics map[string]metric
			if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			if len(metrics) != len(declared) {
				t.Errorf("%s trace %d: %d metrics emitted, %d declared", w.name, trace, len(metrics), len(declared))
			}
			for _, d := range declared {
				m, ok := metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: %s not emitted", w.name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace %d: %s has unit %q, declared %q", w.name, trace, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace %d: %s = %v", w.name, trace, d.Name, m.Value)
				case trace == 0 && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, must be positive", w.name, d.Name, m.Value)
				}
			}
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: timed digest %s, traced digest %s", w.name, digests[0], digests[1])
		}
	}
	// The budget is 10 s; the race detector's slow-down is not the smoke's.
	t.Logf("quick smoke took %v", time.Since(start))
}

// TestChecksFailTheRun feeds each output check a corrupted input and
// holds it to failing, and a failed check to failing the run.
func TestChecksFailTheRun(t *testing.T) {
	if err := checkDigests([]string{"aa", "aa", "aa"}); err != nil {
		t.Errorf("equal digests: %v", err)
	}
	if err := checkDigests([]string{"aa", "ab", "aa"}); err == nil {
		t.Error("a corrupted digest passes checkDigests")
	}

	inRun := []scenario.SnapshotStat{{N: 1}, {N: 40, Min: 7, Avg: 9.5}}
	same := []replayPoint{{n: 1}, {n: 40, min: 7, avg: 9.5}}
	if err := checkReplay("r", inRun, same); err != nil {
		t.Errorf("faithful replay: %v", err)
	}
	for name, bad := range map[string][]replayPoint{
		"min":      {{n: 1}, {n: 40, min: 8, avg: 9.5}},
		"avg":      {{n: 1}, {n: 40, min: 7, avg: 9.25}},
		"n":        {{n: 1}, {n: 39, min: 7, avg: 9.5}},
		"snapshot": {{n: 1}},
	} {
		if err := checkReplay("r", inRun, bad); err == nil {
			t.Errorf("a replay with a mismatched %s passes checkReplay", name)
		}
	}

	res := &scenario.Result{Points: []scenario.SnapshotStat{{N: 40, Min: 7, Avg: 9.5}, {N: 1, Min: 0, Avg: 0}}}
	if err := checkPoints(res); err != nil {
		t.Errorf("sound series: %v", err)
	}
	res.Points[0].Min = 10
	if err := checkPoints(res); err != nil {
		t.Errorf("min > avg under sampling: %v", err)
	}
	res.Config.SampleFraction = 1
	if err := checkPoints(res); err == nil {
		t.Error("min > avg at sample fraction 1 passes checkPoints")
	}
	res.Points[0] = scenario.SnapshotStat{N: 40, Min: 40, Avg: 40}
	if err := checkPoints(res); err == nil {
		t.Error("min above n-1 passes checkPoints")
	}
	if err := checkPoints(&scenario.Result{}); err == nil {
		t.Error("a run without snapshots passes checkPoints")
	}

	stream := []request{{Key: 0}, {Key: 0}, {Key: 0, Resample: true}, {Key: 1}}
	answers := []answer{
		{index: 0, values: "[1,2,3]"}, {index: 1, values: "[1,2,3]"},
		{index: 2, values: "[9,9,9]"}, {index: 3, values: "[4,5,6]"},
	}
	if failed := checkAnswers(stream, answers); len(failed) != 0 {
		t.Errorf("consistent answers: %v", failed)
	}
	answers[1].values = "[1,2,4]"
	if failed := checkAnswers(stream, answers); len(failed) != 1 || failed[1] == "" {
		t.Errorf("a repeat with other values gives %v", failed)
	}

	r := newReport(options{workload: "sim-traffic"})
	for _, d := range endToEnd {
		r.set(d.Name, 1)
	}
	r.Attempted = 3
	r.fail("pass 1 result digest differs")
	r.finish()
	if r.Correct || !strings.Contains(r.resultLine(), `"correct":false`) {
		t.Errorf("a failed check leaves the run correct: %s", r.resultLine())
	}
}
