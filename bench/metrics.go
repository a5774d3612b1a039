package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// metricDef names one metric and its unit. BENCHMARK.json lists the same
// names and units; bench_test.go holds the two lists to each other.
type metricDef struct {
	Name string
	Unit string
	// Better is "lower" or "higher".
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change is a regression.
	Bound float64
	// Exact marks a count that is a pure function of workload and seed:
	// it must repeat exactly between runs and between commits for any
	// change that claims to be a pure speed-up.
	Exact bool
}

// endToEnd is what a user of the system sees. Every metric is reported
// on every workload (see README.md for what each means where); medians
// throughout.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cold_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "warm_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "resample_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer is measured by the traced run, from outside, around calls
// into each layer's public functions. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{Name: "eventsim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "simnet.ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "kademlia.lookup_us", Unit: "us", Better: "lower"},
	{Name: "kademlia.msgs_per_lookup", Unit: "count", Better: "lower"},
	{Name: "scenario.simulate_s", Unit: "s", Better: "lower"},
	{Name: "scenario.us_per_msg", Unit: "us", Better: "lower"},
	{Name: "simnet.msgs_sent", Unit: "count", Better: "lower", Exact: true},
	{Name: "simnet.msgs_lost", Unit: "count", Better: "lower", Exact: true},
	{Name: "traffic.ops", Unit: "count", Better: "lower", Exact: true},
	{Name: "churn.added", Unit: "count", Better: "lower", Exact: true},
	{Name: "churn.removed", Unit: "count", Better: "lower", Exact: true},
	{Name: "attack.removed", Unit: "count", Better: "lower", Exact: true},
	{Name: "scenario.snapshots", Unit: "count", Better: "lower", Exact: true},
	{Name: "scenario.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "scenario.mallocs_k", Unit: "k", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.slotgraph_s", Unit: "s", Better: "lower"},
	{Name: "graph.diff_s", Unit: "s", Better: "lower"},
	{Name: "connectivity.bind_s", Unit: "s", Better: "lower"},
	{Name: "connectivity.full_binds", Unit: "count", Better: "lower", Exact: true},
	{Name: "connectivity.incremental_binds", Unit: "count", Better: "higher", Exact: true},
	{Name: "connectivity.membership_rebinds", Unit: "count", Better: "lower", Exact: true},
	{Name: "connectivity.rebind_fallbacks", Unit: "count", Better: "lower", Exact: true},
	{Name: "connectivity.incremental_bind_ratio", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "connectivity.analyse_s", Unit: "s", Better: "lower"},
	{Name: "connectivity.pairs", Unit: "count", Better: "lower", Exact: true},
	{Name: "connectivity.us_per_pair", Unit: "us", Better: "lower"},
	{Name: "maxflow.haoorlin_us_per_pair", Unit: "us", Better: "lower"},
	{Name: "maxflow.dinic_us_per_pair", Unit: "us", Better: "lower"},
	{Name: "connectivity.graphcut_ms", Unit: "ms", Better: "lower"},
	{Name: "sweep.serial_s", Unit: "s", Better: "lower"},
	{Name: "sweep.par_speedup", Unit: "ratio", Better: "higher"},
	{Name: "serve.resolve_us", Unit: "us", Better: "lower"},
	{Name: "serve.arena.get_warm_us", Unit: "us", Better: "lower"},
	{Name: "serve.sched.acquire_ns", Unit: "ns", Better: "lower"},
	{Name: "sweep.adaptive_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.http.ttfb_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.stream_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.arena.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.arena.builds", Unit: "count", Better: "lower"},
	{Name: "serve.arena.evictions", Unit: "count", Better: "lower"},
	{Name: "serve.sched.queued_mean", Unit: "count", Better: "lower"},
	{Name: "serve.sched.queued_max", Unit: "count", Better: "lower"},
	{Name: "serve.entry.analyze_final_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one run of one workload, timed (Trace 0) or
// traced (Trace 1). The driver-facing result line is a projection of it.
type report struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Quick      bool   `json:"quick,omitempty"`

	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	// Failures lists every output check that did not hold.
	Failures []string `json:"failures,omitempty"`
	// ResultDigest hashes the deterministic result bytes (the sweep JSON
	// document of a batch pass; the first answer to every distinct plain
	// query of the serve stream), so two commits can be compared for
	// bit-identical simulation.
	ResultDigest string `json:"result_digest"`

	Metrics map[string]metric `json:"metrics"`
	// Samples carries the distribution behind every timing metric.
	Samples map[string]summary `json:"samples,omitempty"`

	measured map[string]float64
}

func newReport(o options) *report {
	r := &report{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		GOMAXPROCS: procs, Quick: o.quick, Correct: true,
		Samples: map[string]summary{}, measured: map[string]float64{},
	}
	if o.trace == 1 {
		r.GOMAXPROCS = 1
	}
	return r
}

// catalogue returns the metrics a run of the given mode reports.
func catalogue(trace int) []metricDef {
	if trace == 1 {
		return perLayer
	}
	return endToEnd
}

// set records a measured metric value.
func (r *report) set(name string, v float64) { r.measured[name] = v }

// add accumulates a count over the runs of a pass.
func (r *report) add(name string, v float64) { r.measured[name] += v }

// setSamples records a timing metric as the median of its samples and
// keeps the distribution for the report.
func (r *report) setSamples(name string, samples []float64) {
	s := summarize(samples)
	r.Samples[name] = s
	r.set(name, s.Median)
}

// fail records a failed output check; the run is then not correct.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// finish projects the measured values onto the metric list of the run's
// mode. End-to-end metrics must all have been measured and be finite and
// non-zero; an unexercised layer reports 0. A value measured under a
// name outside the catalogue is a bug in the benchmark.
func (r *report) finish() {
	defs, required := catalogue(r.Trace), r.Trace == 0
	r.Metrics = make(map[string]metric, len(defs))
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.Name] = true
		v, ok := r.measured[d.Name]
		switch {
		case !ok && required:
			r.fail("metric %s was not measured", d.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			r.fail("metric %s is not finite", d.Name)
			v = 0
		case required && v == 0:
			r.fail("metric %s is zero", d.Name)
		}
		r.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for name := range r.measured {
		if !known[name] {
			r.fail("metric %s is not in the catalogue", name)
		}
	}
	if r.Attempted < 1 {
		r.Attempted = 1
		r.fail("no operation was attempted")
	}
	if r.Failed > 0 {
		r.Correct = false
	}
}

// resultLine is the driver-facing projection: the last line of standard
// output of a single-workload run.
func (r *report) resultLine() string {
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		// Values are finite by finish and keys are plain strings.
		panic(err)
	}
	return string(line)
}

// writeJSONFile writes v as indented JSON.
func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readJSONFile decodes the JSON document at path into v.
func readJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
