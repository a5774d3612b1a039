package serve

import (
	"fmt"
	"hash/fnv"
	"slices"
	"time"

	"kadre/internal/scenario"
	"kadre/internal/sweep"
	"kadre/internal/workload"
)

// ScenarioSpec is the flat wire form of a simulation configuration:
// shorthand for a one-run scenario spec in which a zero field is an unset
// one. Omitted fields take the named scale's values (or the paper
// defaults), exactly as on the batch CLIs; durations are simulated minutes.
type ScenarioSpec struct {
	Scale            string  `json:"scale,omitempty"` // paper, reduced (default), tiny
	Size             int     `json:"size,omitempty"`
	K                int     `json:"k,omitempty"`
	Alpha            int     `json:"alpha,omitempty"`
	Bits             int     `json:"bits,omitempty"`
	Staleness        int     `json:"staleness,omitempty"`
	Loss             string  `json:"loss,omitempty"`  // none, low, med, high
	Churn            string  `json:"churn,omitempty"` // "add/remove" per minute
	ChurnMinutes     float64 `json:"churn_minutes,omitempty"`
	Traffic          bool    `json:"traffic,omitempty"`
	SetupMinutes     float64 `json:"setup_minutes,omitempty"`
	StabilizeMinutes float64 `json:"stabilize_minutes,omitempty"`
	SnapshotMinutes  float64 `json:"snapshot_minutes,omitempty"`
	SampleFraction   float64 `json:"sample_fraction,omitempty"`
	Seed             int64   `json:"seed,omitempty"`
}

// AttackSpec is the flat wire form of an adversary riding the churn
// window; zero fields take the spec resolver's default adversary.
type AttackSpec struct {
	Strategy        string  `json:"strategy"` // random, degree, cutset, eclipse
	Budget          int     `json:"budget,omitempty"`
	Kills           int     `json:"kills,omitempty"`
	IntervalMinutes float64 `json:"interval_minutes,omitempty"`
}

// ResampleSpec re-analyzes the final captured topology on the warm
// engine with a different connectivity sampling, without re-simulating.
// Only meaningful for the final_min / final_avg metrics.
type ResampleSpec struct {
	Fraction float64 `json:"fraction,omitempty"` // 0: the run's own c
	Seed     int64   `json:"seed,omitempty"`     // 0: the final point's own Avg seed
}

// QuerySpec is the body of POST /v1/query: a scenario, a target metric,
// and a stopping rule — exactly one of threshold or precision.
type QuerySpec struct {
	Scenario ScenarioSpec `json:"scenario"`
	// Spec embeds a full scenario spec document — the same format the
	// batch CLIs load via -scenario — which must resolve to exactly one
	// run. It is mutually exclusive with the scenario block except for
	// scenario.scale (the fallback scale when the spec pins none) and
	// scenario.seed (the base seed the run's seed_offset adds to), and
	// with the attack block (put the attack in the spec). Traces must
	// inline their events: server-side file paths are not addressable
	// from the wire.
	Spec     *workload.Spec `json:"spec,omitempty"`
	Attack   *AttackSpec    `json:"attack,omitempty"`
	Metric   string         `json:"metric,omitempty"` // default churn_min_mean
	Resample *ResampleSpec  `json:"resample,omitempty"`
	// Threshold asks "does metric stay >= threshold?": replication stops
	// once the 95% CI excludes it, verdict pass or fail.
	Threshold *float64 `json:"threshold,omitempty"`
	// Precision asks for the metric's value: replication stops once the
	// 95% CI half-width is at most precision * |mean|, verdict resolved.
	Precision *float64 `json:"precision,omitempty"`
	MinReps   int      `json:"min_reps,omitempty"` // default 3
	MaxReps   int      `json:"max_reps,omitempty"` // default 8, cap 256
	// DeadlineMS bounds the query's wall-clock budget in milliseconds; 0
	// takes the server's default deadline. A query past its deadline stops
	// within one event batch and answers 504 (or an error record when the
	// stream already started).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Stream false suppresses per-rep records; the response is the final
	// record alone. Default true.
	Stream *bool `json:"stream,omitempty"`
}

// Metric names. final_* metrics read the run's last snapshot point;
// churn_min_mean is the Table 2 quantity (mean min-connectivity over the
// churn window).
const (
	MetricChurnMinMean = "churn_min_mean"
	MetricFinalMin     = "final_min"
	MetricFinalAvg     = "final_avg"
	MetricFinalSCC     = "final_scc"
	MetricFinalN       = "final_n"
)

// MetricNames lists every queryable metric.
func MetricNames() []string {
	return []string{MetricChurnMinMean, MetricFinalMin, MetricFinalAvg, MetricFinalSCC, MetricFinalN}
}

// metricFromResult extracts a plain (non-resampled) metric; final_avg is
// NaN when the run skipped Avg and the final point was analyzed, which
// metricValue answers on demand instead. Resolve validated the metric
// name and rejected configurations that snapshot past the run's end, but
// a defensive error beats a panic taking the whole server down if either
// invariant ever slips.
func metricFromResult(name string, r *scenario.Result) (float64, error) {
	if len(r.Points) == 0 {
		return 0, fmt.Errorf("serve: run %q captured no snapshot points", r.Config.Name)
	}
	last := r.Points[len(r.Points)-1]
	switch name {
	case MetricChurnMinMean:
		return r.ChurnWindowSummary().Mean, nil
	case MetricFinalMin:
		return float64(last.Min), nil
	case MetricFinalAvg:
		return last.Avg, nil
	case MetricFinalSCC:
		return last.SCC, nil
	case MetricFinalN:
		return float64(last.N), nil
	}
	return 0, fmt.Errorf("serve: unknown metric %q", name)
}

// Query is a resolved, runnable QuerySpec.
type Query struct {
	Config   scenario.Config
	Rule     sweep.StopRule
	Metric   string
	Resample *ResampleSpec
	MinReps  int
	MaxReps  int
	Deadline time.Duration // 0: the server's default
	Stream   bool
}

// maxRepsCap bounds a single query's replication budget.
const maxRepsCap = 256

// Resolve validates the spec and binds it to a scenario configuration.
// The config's name is derived from its arena key, so identical specs —
// however spelled — resolve to the same run identity.
func (qs QuerySpec) Resolve() (Query, error) {
	var cfg scenario.Config
	var err error
	if qs.Spec != nil {
		cfg, err = qs.resolveEmbeddedSpec()
	} else {
		cfg, err = qs.resolveFlat()
	}
	if err != nil {
		return Query{}, err
	}
	return qs.finish(cfg)
}

// resolveFlat binds the flat scenario and attack blocks to a config as
// the one-run spec they abbreviate: checked and resolved by the same code
// as an embedded document.
func (qs QuerySpec) resolveFlat() (scenario.Config, error) {
	sp := workload.Spec{Version: workload.SpecVersion, ID: "query", Runs: []workload.RunSpec{qs.runSpec()}}
	if err := sp.Check(); err != nil {
		return scenario.Config{}, err
	}
	sc, err := scenario.ScaleByName(qs.Scenario.Scale)
	if err != nil {
		return scenario.Config{}, err
	}
	return scenario.ResolveRun(sp.Runs[0], sc, qs.Scenario.Seed)
}

// runSpec translates the flat scenario and attack blocks into the
// declarative run they abbreviate. It carries no rule of its own: a zero
// field becomes an unset one, and defaulting and validation are the spec
// layer's.
func (qs QuerySpec) runSpec() workload.RunSpec {
	s := &qs.Scenario
	run := workload.RunSpec{
		Name: "query",
		K:    set(&s.K), Alpha: set(&s.Alpha), Bits: set(&s.Bits),
		Staleness: set(&s.Staleness), Loss: set(&s.Loss), Churn: set(&s.Churn),
		ChurnMinutes: set(&s.ChurnMinutes), Traffic: set(&s.Traffic),
		SetupMinutes: set(&s.SetupMinutes), StabilizeMinutes: set(&s.StabilizeMinutes),
		SnapshotMinutes: set(&s.SnapshotMinutes), SampleFraction: set(&s.SampleFraction),
	}
	if s.Size != 0 {
		run.Size = &workload.Size{Nodes: s.Size}
	}
	if a := qs.Attack; a != nil {
		run.Attack = &workload.AttackSpec{
			Strategy: a.Strategy, Budget: set(&a.Budget), Kills: set(&a.Kills),
			IntervalMinutes: a.IntervalMinutes,
		}
	}
	return run
}

// set maps the flat block's zero-means-unset convention onto RunSpec's
// nil-means-unset pointers.
func set[T comparable](v *T) *T {
	var zero T
	if *v == zero {
		return nil
	}
	return v
}

// resolveEmbeddedSpec binds an embedded scenario spec document to the
// single config it must resolve to.
func (qs QuerySpec) resolveEmbeddedSpec() (scenario.Config, error) {
	if qs.Attack != nil {
		return scenario.Config{}, fmt.Errorf("serve: spec and attack are mutually exclusive (put the attack block inside the spec run)")
	}
	if qs.Scenario != (ScenarioSpec{Scale: qs.Scenario.Scale, Seed: qs.Scenario.Seed}) {
		return scenario.Config{}, fmt.Errorf("serve: spec and scenario are mutually exclusive (only scenario.scale and scenario.seed may accompany a spec)")
	}
	if err := qs.Spec.Check(); err != nil {
		return scenario.Config{}, err
	}
	// The document arrived over the wire: a client's trace file path means
	// nothing on the server's filesystem, and must not name a file there.
	for _, t := range qs.Spec.Traces() {
		if t.Path != "" {
			return scenario.Config{}, fmt.Errorf("serve: trace path %q is not addressable over the wire; inline the events", t.Path)
		}
	}
	sc, err := scenario.ScaleByName(qs.Scenario.Scale)
	if err != nil {
		return scenario.Config{}, err
	}
	exp, err := scenario.FromSpec(qs.Spec, sc, qs.Scenario.Seed)
	if err != nil {
		return scenario.Config{}, err
	}
	if len(exp.Configs) != 1 {
		return scenario.Config{}, fmt.Errorf("serve: spec %q resolves to %d runs; a query needs exactly one", qs.Spec.ID, len(exp.Configs))
	}
	return exp.Configs[0], nil
}

// finish applies the scenario-independent part of Resolve: the metric,
// the stopping rule, the replication bounds, and the run identity.
func (qs QuerySpec) finish(cfg scenario.Config) (Query, error) {
	metric := qs.Metric
	if metric == "" {
		metric = MetricChurnMinMean
	}
	if !slices.Contains(MetricNames(), metric) {
		return Query{}, fmt.Errorf("serve: unknown metric %q (have %v)", metric, MetricNames())
	}
	if qs.Resample != nil && metric != MetricFinalMin && metric != MetricFinalAvg {
		return Query{}, fmt.Errorf("serve: resample applies only to %s/%s, not %q",
			MetricFinalMin, MetricFinalAvg, metric)
	}
	if r := qs.Resample; r != nil && (r.Fraction < 0 || r.Fraction > 1) {
		return Query{}, fmt.Errorf("serve: resample fraction %g outside [0,1] (0 = the run's own c)", r.Fraction)
	}
	if metric == MetricChurnMinMean && cfg.ChurnPhase == 0 {
		return Query{}, fmt.Errorf("serve: metric %s needs a churn window (set churn, churn_minutes or attack)", MetricChurnMinMean)
	}

	var rule sweep.StopRule
	switch {
	case qs.Threshold != nil && qs.Precision != nil:
		return Query{}, fmt.Errorf("serve: threshold and precision are mutually exclusive")
	case qs.Threshold != nil:
		rule = sweep.StopAtThreshold(*qs.Threshold)
	case qs.Precision != nil:
		if *qs.Precision <= 0 {
			return Query{}, fmt.Errorf("serve: precision must be positive")
		}
		rule = sweep.StopAtPrecision(*qs.Precision)
	default:
		return Query{}, fmt.Errorf("serve: query needs a threshold or a precision")
	}

	if qs.MinReps < 0 {
		return Query{}, fmt.Errorf("serve: min_reps %d is negative", qs.MinReps)
	}
	if qs.MaxReps < 0 {
		return Query{}, fmt.Errorf("serve: max_reps %d is negative", qs.MaxReps)
	}
	if qs.MaxReps > maxRepsCap {
		return Query{}, fmt.Errorf("serve: max_reps %d exceeds the cap %d", qs.MaxReps, maxRepsCap)
	}
	// Check the rep bounds RunAdaptive will actually use, so an
	// inconsistent pair is a spec error here and never a late failure
	// after admission.
	if effMin, effMax, err := sweep.RepBounds(qs.MinReps, qs.MaxReps); err != nil {
		return Query{}, fmt.Errorf("serve: max_reps %d < effective min_reps %d", effMax, effMin)
	}
	if qs.DeadlineMS < 0 {
		return Query{}, fmt.Errorf("serve: deadline_ms %d is negative", qs.DeadlineMS)
	}

	cfg.Name = queryName(cfg)
	eff := cfg.WithDefaults()
	if err := eff.Validate(); err != nil {
		return Query{}, err
	}
	// A snapshot interval past the run's end would capture zero points and
	// leave nothing to extract a metric from.
	if eff.SnapshotInterval > eff.Total() {
		return Query{}, fmt.Errorf("serve: snapshot interval %s exceeds the run length %s",
			eff.SnapshotInterval, eff.Total())
	}
	stream := true
	if qs.Stream != nil {
		stream = *qs.Stream
	}
	return Query{
		Config: cfg, Rule: rule, Metric: metric, Resample: qs.Resample,
		MinReps: qs.MinReps, MaxReps: qs.MaxReps,
		Deadline: time.Duration(qs.DeadlineMS) * time.Millisecond,
		Stream:   stream,
	}, nil
}

// queryName labels a query's runs by a short hash of their run key
// (sweep.Key, which also keys the arena): stable across restarts,
// identical for equivalent specs.
func queryName(cfg scenario.Config) string {
	h := fnv.New64a()
	h.Write([]byte(sweep.Key(cfg)))
	return fmt.Sprintf("query/%08x", h.Sum64()&0xFFFFFFFF)
}
