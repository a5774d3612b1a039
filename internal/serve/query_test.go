package serve

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"kadre/internal/scenario"
	"kadre/internal/sweep"
	"kadre/internal/workload"
)

// tinySpec builds a minimal valid spec around the final_min metric (no
// churn window needed) for mutation by the validation tests.
func tinySpec() QuerySpec {
	thr := 1000.0
	return QuerySpec{
		Scenario: ScenarioSpec{Scale: "tiny", Size: 20, K: 5, Staleness: 1,
			SetupMinutes: 6, StabilizeMinutes: 12, SnapshotMinutes: 6,
			SampleFraction: 0.1, Seed: 5},
		Metric:    MetricFinalMin,
		Threshold: &thr,
	}
}

func TestResolveRejectsNegativeReps(t *testing.T) {
	qs := tinySpec()
	qs.MinReps = -1
	if _, err := qs.Resolve(); err == nil || !strings.Contains(err.Error(), "min_reps") {
		t.Fatalf("negative min_reps: err = %v, want min_reps error", err)
	}
	qs = tinySpec()
	qs.MaxReps = -3
	if _, err := qs.Resolve(); err == nil || !strings.Contains(err.Error(), "max_reps") {
		t.Fatalf("negative max_reps: err = %v, want max_reps error", err)
	}
}

func TestResolveRejectsMaxBelowEffectiveMin(t *testing.T) {
	// max_reps 2 with min_reps unset: RunAdaptive would default min to 3
	// and fail after admission; Resolve must catch it as a spec error.
	qs := tinySpec()
	qs.MaxReps = 2
	if _, err := qs.Resolve(); err == nil || !strings.Contains(err.Error(), "effective min_reps") {
		t.Fatalf("max_reps 2 vs default min: err = %v", err)
	}
	// An explicit consistent pair at the same value is fine.
	qs.MinReps = 2
	if _, err := qs.Resolve(); err != nil {
		t.Fatalf("min_reps 2 / max_reps 2: %v", err)
	}
}

func TestResolveRejectsNegativeDeadline(t *testing.T) {
	qs := tinySpec()
	qs.DeadlineMS = -5
	if _, err := qs.Resolve(); err == nil || !strings.Contains(err.Error(), "deadline_ms") {
		t.Fatalf("negative deadline_ms: err = %v", err)
	}
}

func TestResolveDeadline(t *testing.T) {
	qs := tinySpec()
	qs.DeadlineMS = 1500
	q, err := qs.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if q.Deadline != 1500*time.Millisecond {
		t.Fatalf("Deadline = %v, want 1.5s", q.Deadline)
	}
	qs.DeadlineMS = 0
	if q, err = qs.Resolve(); err != nil || q.Deadline != 0 {
		t.Fatalf("zero deadline_ms: deadline=%v err=%v", q.Deadline, err)
	}
}

func TestResolveRejectsSnapshotPastRunEnd(t *testing.T) {
	// 6 + 12 simulated minutes of run, snapshots every 30: zero points,
	// nothing to extract a metric from — a spec error, not a panic later.
	qs := tinySpec()
	qs.Scenario.SnapshotMinutes = 30
	if _, err := qs.Resolve(); err == nil || !strings.Contains(err.Error(), "snapshot interval") {
		t.Fatalf("snapshot past run end: err = %v", err)
	}
}

// tinyEmbeddedSpec is the scenario-spec-document spelling of tinySpec's
// flat scenario block.
func tinyEmbeddedSpec() *workload.Spec {
	iv := func(v int) *int { return &v }
	fv := func(v float64) *float64 { return &v }
	return &workload.Spec{
		Version: workload.SpecVersion,
		ID:      "tiny-query",
		Runs: []workload.RunSpec{{
			Name: "q", Size: &workload.Size{Nodes: 20}, K: iv(5), Staleness: iv(1),
			SetupMinutes: fv(6), StabilizeMinutes: fv(12),
			SnapshotMinutes: fv(6), SampleFraction: fv(0.1),
		}},
	}
}

// resolveBody takes a wire body through handleQuery's two steps.
func resolveBody(body []byte) (Query, error) {
	qs, err := decodeQuery(bytes.NewReader(body))
	if err != nil {
		return Query{}, err
	}
	return qs.Resolve()
}

// equivalentSpellings pairs a flat scenario/attack block with the embedded
// spec document that declares the same run.
var equivalentSpellings = []struct{ name, flat, embedded string }{
	{"plain",
		`{"scenario":{"scale":"tiny","seed":5,"size":20,"k":5,"staleness":1,"setup_minutes":6,"stabilize_minutes":12,"snapshot_minutes":6,"sample_fraction":0.1},"metric":"final_min","threshold":1000}`,
		`{"scenario":{"scale":"tiny","seed":5},"spec":{"version":1,"id":"q","runs":[{"name":"q","size":20,"k":5,"staleness":1,"setup_minutes":6,"stabilize_minutes":12,"snapshot_minutes":6,"sample_fraction":0.1}]},"metric":"final_min","threshold":1000}`},
	{"churn",
		`{"scenario":{"scale":"tiny","seed":13,"size":30,"k":5,"staleness":1,"churn":"1/1","churn_minutes":30},"threshold":1}`,
		`{"scenario":{"scale":"tiny","seed":13},"spec":{"version":1,"id":"q","runs":[{"name":"q","size":30,"k":5,"staleness":1,"churn":"1/1","churn_minutes":30}]},"threshold":1}`},
	{"default attack",
		`{"scenario":{"scale":"tiny","seed":3,"k":5,"staleness":1},"attack":{"strategy":"cutset"},"threshold":1}`,
		`{"scenario":{"scale":"tiny","seed":3},"spec":{"version":1,"id":"q","runs":[{"name":"q","k":5,"staleness":1,"attack":{"strategy":"cutset"}}]},"threshold":1}`},
	{"explicit attack",
		`{"scenario":{"scale":"tiny","seed":3,"k":5},"attack":{"strategy":"degree","budget":12,"kills":5,"interval_minutes":4},"threshold":1}`,
		`{"scenario":{"scale":"tiny","seed":3},"spec":{"version":1,"id":"q","runs":[{"name":"q","k":5,"attack":{"strategy":"degree","budget":12,"kills":5,"interval_minutes":4}}]},"threshold":1}`},
	{"quiet window",
		`{"scenario":{"scale":"tiny","size":20,"churn_minutes":10},"threshold":1}`,
		`{"scenario":{"scale":"tiny"},"spec":{"version":1,"id":"q","runs":[{"name":"q","size":20,"churn_minutes":10}]},"threshold":1}`},
}

// TestResolveEmbeddedSpecMatchesScenario: equivalent spellings must
// resolve to the same run identity (arena key and derived query name), or
// the warm cache would fragment.
func TestResolveEmbeddedSpecMatchesScenario(t *testing.T) {
	for _, tt := range equivalentSpellings {
		qf, err := resolveBody([]byte(tt.flat))
		if err != nil {
			t.Fatalf("%s: flat: %v", tt.name, err)
		}
		qe, err := resolveBody([]byte(tt.embedded))
		if err != nil {
			t.Fatalf("%s: embedded: %v", tt.name, err)
		}
		if sweep.Key(qe.Config) != sweep.Key(qf.Config) {
			t.Errorf("%s: arena keys differ:\n spec: %s\n flat: %s", tt.name, sweep.Key(qe.Config), sweep.Key(qf.Config))
		}
		if qe.Config.Name != qf.Config.Name {
			t.Errorf("%s: query names differ: %q vs %q", tt.name, qe.Config.Name, qf.Config.Name)
		}
	}
}

// TestFlatKeysPinned pins the arena keys of attack-free flat queries:
// renaming a warm entry is a deliberate key change, never a side effect.
// The keys carry the effective k, alpha, b and s, because
// scenario.Config.WithDefaults fills the Kademlia defaults before the
// key is taken, so the row spelling the defaults out names the same run
// as the empty one. The traffic rows carry the effective rates and key
// pool; the others carry none. "@" rows read the committed kadserve query files;
// the third and fourth are the shape bench/workloads/serve-mixed.json
// streams.
func TestFlatKeysPinned(t *testing.T) {
	const (
		wl        = "wl={LookupsPerMinute:0 StoresPerMinute:0 KeyPoolSize:0}"
		wlTraffic = "wl={LookupsPerMinute:10 StoresPerMinute:1 KeyPoolSize:256}"
	)
	for _, tt := range []struct{ body, want string }{
		{"@../../cmd/kadserve/testdata/smoke_query.json",
			"size=30|k=5|a=3|b=160|s=1|loss=none|churn=1/1|traffic=false|" + wl + "|setup=600000000000|stab=1800000000000|phase=1800000000000|snap=1200000000000|c=0.1|attack=none|ac=0|target=|seed=7"},
		{"@../../cmd/kadserve/testdata/cancel_query.json",
			"size=30|k=5|a=3|b=160|s=1|loss=none|churn=1/1|traffic=false|" + wl + "|setup=600000000000|stab=1800000000000|phase=1800000000000|snap=1200000000000|c=0.1|attack=none|ac=0|target=|seed=13"},
		{`{"scenario":{"scale":"tiny","size":60,"k":10,"churn":"1/1","churn_minutes":40,"seed":1804289383},"metric":"churn_min_mean","precision":0.05,"min_reps":3,"max_reps":3}`,
			"size=60|k=10|a=3|b=160|s=5|loss=none|churn=1/1|traffic=false|" + wl + "|setup=600000000000|stab=1800000000000|phase=2400000000000|snap=1200000000000|c=0.1|attack=none|ac=0|target=|seed=1804289383"},
		{`{"scenario":{"scale":"tiny","size":60,"k":20,"churn":"10/10","churn_minutes":40,"seed":846930886},"metric":"final_avg","resample":{"fraction":0.5,"seed":99},"precision":0.05,"min_reps":3,"max_reps":3}`,
			"size=60|k=20|a=3|b=160|s=5|loss=none|churn=10/10|traffic=false|" + wl + "|setup=600000000000|stab=1800000000000|phase=2400000000000|snap=1200000000000|c=0.1|attack=none|ac=0|target=|seed=846930886"},
		{`{"scenario":{"scale":"tiny","size":20,"k":5,"staleness":1,"setup_minutes":6,"stabilize_minutes":12,"snapshot_minutes":6,"sample_fraction":0.1,"seed":5},"metric":"final_min","threshold":1000}`,
			"size=20|k=5|a=3|b=160|s=1|loss=none|churn=0/0|traffic=false|" + wl + "|setup=360000000000|stab=720000000000|phase=0|snap=360000000000|c=0.1|attack=none|ac=0|target=|seed=5"},
		{`{"scenario":{},"metric":"final_min","threshold":3}`,
			"size=100|k=20|a=3|b=160|s=5|loss=none|churn=0/0|traffic=false|" + wl + "|setup=1800000000000|stab=5400000000000|phase=0|snap=1800000000000|c=0.04|attack=none|ac=0|target=|seed=1"},
		{`{"scenario":{"k":20,"alpha":3,"bits":160,"staleness":5},"metric":"final_min","threshold":3}`,
			"size=100|k=20|a=3|b=160|s=5|loss=none|churn=0/0|traffic=false|" + wl + "|setup=1800000000000|stab=5400000000000|phase=0|snap=1800000000000|c=0.04|attack=none|ac=0|target=|seed=1"},
		{`{"scenario":{"scale":"paper","alpha":5,"bits":80,"loss":"high","traffic":true,"seed":42},"metric":"final_scc","precision":0.1}`,
			"size=250|k=20|a=5|b=80|s=5|loss=high|churn=0/0|traffic=true|" + wlTraffic + "|setup=1800000000000|stab=5400000000000|phase=0|snap=1200000000000|c=0.02|attack=none|ac=0|target=|seed=42"},
		{`{"scenario":{"scale":"reduced","k":20,"staleness":5,"churn":"10/10"},"threshold":2}`,
			"size=100|k=20|a=3|b=160|s=5|loss=none|churn=10/10|traffic=false|" + wl + "|setup=1800000000000|stab=5400000000000|phase=14400000000000|snap=1800000000000|c=0.04|attack=none|ac=0|target=|seed=1"},
		{`{"scenario":{"scale":"tiny","size":25,"churn":"0/1","churn_minutes":12.5,"stabilize_minutes":7,"snapshot_minutes":2.5,"sample_fraction":1,"seed":-3},"threshold":1}`,
			"size=25|k=20|a=3|b=160|s=5|loss=none|churn=0/1|traffic=false|" + wl + "|setup=600000000000|stab=420000000000|phase=750000000000|snap=150000000000|c=1|attack=none|ac=0|target=|seed=-3"},
		{`{"scenario":{"scale":"tiny","loss":"low","churn":"1/1","traffic":true,"seed":9},"metric":"final_n","threshold":10}`,
			"size=40|k=20|a=3|b=160|s=5|loss=low|churn=1/1|traffic=true|" + wlTraffic + "|setup=600000000000|stab=1800000000000|phase=2400000000000|snap=1200000000000|c=0.1|attack=none|ac=0|target=|seed=9"},
	} {
		body := []byte(tt.body)
		if tt.body[0] == '@' {
			var err error
			if body, err = os.ReadFile(tt.body[1:]); err != nil {
				t.Fatal(err)
			}
		}
		q, err := resolveBody(body)
		if err != nil {
			t.Errorf("%s: %v", tt.body, err)
		} else if got := sweep.Key(q.Config); got != tt.want {
			t.Errorf("%s:\n key  %s\n want %s", tt.body, got, tt.want)
		}
	}
}

func TestResolveEmbeddedSpecRejections(t *testing.T) {
	thr := 1000.0
	base := func() QuerySpec {
		return QuerySpec{
			Scenario:  ScenarioSpec{Scale: "tiny", Seed: 5},
			Spec:      tinyEmbeddedSpec(),
			Metric:    MetricFinalMin,
			Threshold: &thr,
		}
	}

	qs := base()
	qs.Scenario.Size = 20 // anything beyond scale/seed must be inside the spec
	if _, err := qs.Resolve(); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("scenario.size next to spec: err = %v", err)
	}

	qs = base()
	qs.Attack = &AttackSpec{Strategy: "random"}
	if _, err := qs.Resolve(); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("attack next to spec: err = %v", err)
	}

	qs = base()
	qs.Spec.Runs = append(qs.Spec.Runs, qs.Spec.Runs[0])
	qs.Spec.Runs[1].Name = "q2"
	if _, err := qs.Resolve(); err == nil || !strings.Contains(err.Error(), "exactly one") {
		t.Fatalf("two-run spec: err = %v", err)
	}

	qs = base()
	qs.Spec.ID = ""
	if _, err := qs.Resolve(); err == nil || !strings.Contains(err.Error(), "id") {
		t.Fatalf("spec without id: err = %v", err)
	}

	qs = base()
	qs.Spec.Runs[0].Trace = &workload.TraceSpec{Path: "/etc/passwd"}
	if _, err := qs.Resolve(); err == nil || !strings.Contains(err.Error(), "not addressable") {
		t.Fatalf("path-only trace over the wire: err = %v", err)
	}

	// Inline events meet a trace file's label rules.
	qs = base()
	qs.Spec.Runs[0].Trace = &workload.TraceSpec{Events: []workload.TraceEvent{{TMin: 1, Op: "leave", Node: "ghost"}}}
	if _, err := qs.Resolve(); err == nil || !strings.Contains(err.Error(), `node "ghost" leaves at 1m without a prior join`) {
		t.Fatalf("inline trace leaving an unknown node: err = %v", err)
	}
}

func TestMetricFromResultDefensive(t *testing.T) {
	empty := &scenario.Result{Config: scenario.Config{Name: "hollow"}}
	if _, err := metricFromResult(MetricFinalMin, empty); err == nil {
		t.Fatal("empty Points must error, not panic")
	}
	if _, err := metricFromResult("bogus", &scenario.Result{
		Points: []scenario.SnapshotStat{{N: 5}},
	}); err == nil {
		t.Fatal("unknown metric must error, not panic")
	}
	v, err := metricFromResult(MetricFinalN, &scenario.Result{
		Points: []scenario.SnapshotStat{{N: 5}},
	})
	if err != nil || v != 5 {
		t.Fatalf("final_n = %v, %v", v, err)
	}
}
