package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "run_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "qps", Better: "higher", Bound: 0.10}
	at := func(median, lo, hi float64) estimate { return estimate{median: median, lo: lo, hi: hi, runs: 10} }
	cases := []struct {
		name string
		d    metricDef
		a, b estimate
		want string
	}{
		{"same", lower, at(10, 9.9, 10.1), at(10.05, 9.95, 10.15), verdictWithin},
		{"slower beyond the bound", lower, at(10, 9.9, 10.1), at(11.5, 11.4, 11.6), verdictWorse},
		{"slower within the bound", lower, at(10, 9.9, 10.1), at(10.5, 10.4, 10.6), verdictWithin},
		{"faster, ranges apart", lower, at(10, 9.9, 10.1), at(9, 8.9, 9.1), verdictBetter},
		{"faster, ranges touching", lower, at(10, 9.5, 10.1), at(9.6, 9.4, 9.8), verdictWithin},
		{"spread wider than the bound", lower, at(10, 8, 12), at(10.5, 8.5, 12.5), verdictUnresolved},
		{"fewer queries per second", higher, at(30, 29.5, 30.5), at(25, 24.5, 25.5), verdictWorse},
		{"more queries per second", higher, at(30, 29.5, 30.5), at(35, 34.5, 35.5), verdictBetter},
		{"faster, but one run a side", lower, estimate{median: 10, lo: 9.9, hi: 10.1, runs: 1}, estimate{median: 9, lo: 8.9, hi: 9.1, runs: 1}, verdictWithin},
	}
	for _, c := range cases {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func timedReport(workload string, seed int64, scale float64, digest string) *report {
	r := &report{Workload: workload, Seed: seed, Correct: true, ResultDigest: digest,
		Metrics: map[string]metric{}, Samples: map[string]summary{}}
	for _, d := range endToEnd {
		v := 10.0
		if d.Name == "run_s" {
			v *= scale
		}
		r.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return r
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, reports ...*report) string {
		path := filepath.Join(dir, name)
		if err := writeJSONFile(path, resultFile{Reports: reports}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	traced := func(sent float64) *report {
		return &report{Workload: "sim-traffic", Seed: 1, Trace: 1, ResultDigest: "d1",
			Metrics: map[string]metric{"simnet.msgs_sent": {Value: sent, Unit: "count"}}}
	}
	base := write("a.json", timedReport("sim-traffic", 1, 1, "d1"), traced(100))

	var out bytes.Buffer
	if err := compareFiles(&out, base, write("same.json", timedReport("sim-traffic", 1, 1.02, "d1"), traced(100))); err != nil {
		t.Errorf("a 2 %% slower run_s fails the comparison: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), verdictWithin) || strings.Contains(out.String(), "DIFFERS") {
		t.Errorf("unexpected report:\n%s", out.String())
	}

	out.Reset()
	err := compareFiles(&out, base, write("slow.json", timedReport("sim-traffic", 1, 1.5, "d1"), traced(100)))
	if err == nil || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("a 50 %% slower run_s passes: %v\n%s", err, out.String())
	}

	out.Reset()
	err = compareFiles(&out, base, write("other.json", timedReport("sim-traffic", 1, 1, "d2"), traced(101)))
	if err == nil || !strings.Contains(out.String(), "result_digest d1 vs d2") || !strings.Contains(out.String(), "simnet.msgs_sent 100 vs 101") {
		t.Errorf("a differing digest and exact count pass: %v\n%s", err, out.String())
	}

	out.Reset()
	if err := compareFiles(&out, base, write("seed2.json", timedReport("sim-traffic", 2, 1, "d9"))); err != nil {
		t.Errorf("digests of different seeds were compared: %v\n%s", err, out.String())
	}
}
