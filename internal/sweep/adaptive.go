package sweep

import (
	"context"
	"fmt"
	"math"

	"kadre/internal/scenario"
)

// Adaptive-precision replication: instead of running a fixed -reps R,
// RunAdaptive replicates a configuration until the Student-t 95%
// confidence interval on a target metric is DECIDED — entirely on one
// side of a query threshold, or tight enough relative to its mean — and
// stops. Capacity-planning queries ("does config X stay k-connected
// under attack Y?") usually decide after a handful of replications; the
// fixed-R schedule pays the worst case every time.
//
// RunAdaptive runs one config through RunGroups' pool with a stop rule,
// so RunGroups' contract holds: the stop index, and with it the rep
// count, values and aggregates, is identical for any Jobs, and a
// canceled run returns an error wrapping ctx's error (errors.Is tells a
// canceled query from a failed one) after a deterministic prefix of
// progress updates.

// Verdict is the outcome of an adaptively replicated query.
type Verdict string

const (
	// VerdictPass: the CI lies entirely at or above the threshold — the
	// queried property (metric >= threshold) holds.
	VerdictPass Verdict = "pass"
	// VerdictFail: the CI lies entirely below the threshold.
	VerdictFail Verdict = "fail"
	// VerdictResolved: a precision rule reached its target CI width.
	VerdictResolved Verdict = "resolved"
	// VerdictUndecided: the rep cap was reached without a decision.
	VerdictUndecided Verdict = "undecided"
)

// StopRule decides when accumulated replications settle a query. Build
// one with StopAtThreshold or StopAtPrecision.
type StopRule struct {
	threshold    float64
	hasThreshold bool
	relPrecision float64
}

// StopAtThreshold stops once the 95% CI of the metric's mean excludes
// the threshold: lower bound >= threshold decides pass (the metric
// stays at or above it), upper bound < threshold decides fail. The >=
// on the pass side makes zero-variance integer metrics sitting exactly
// on the threshold decide pass, matching "stays k-connected" semantics.
func StopAtThreshold(threshold float64) StopRule {
	return StopRule{threshold: threshold, hasThreshold: true}
}

// StopAtPrecision stops once the 95% CI half-width is at most rel times
// the absolute mean (an all-equal sample — half-width 0 — always
// decides, including a zero mean). The verdict is VerdictResolved.
func StopAtPrecision(rel float64) StopRule {
	return StopRule{relPrecision: rel}
}

// Threshold returns the threshold and whether the rule has one.
func (r StopRule) Threshold() (float64, bool) { return r.threshold, r.hasThreshold }

// Precision returns the relative-precision target (0 for threshold rules).
func (r StopRule) Precision() float64 { return r.relPrecision }

func (r StopRule) validate() error {
	if !r.hasThreshold && r.relPrecision <= 0 {
		return fmt.Errorf("sweep: stop rule needs a threshold or a positive precision")
	}
	return nil
}

// decide evaluates the rule against the running mean and CI half-width.
// A NaN half-width (fewer than two reps) never decides.
func (r StopRule) decide(mean, half float64) (Verdict, bool) {
	if math.IsNaN(half) {
		return VerdictUndecided, false
	}
	if r.hasThreshold {
		if mean-half >= r.threshold {
			return VerdictPass, true
		}
		if mean+half < r.threshold {
			return VerdictFail, true
		}
		return VerdictUndecided, false
	}
	if half <= r.relPrecision*math.Abs(mean) {
		return VerdictResolved, true
	}
	return VerdictUndecided, false
}

// AdaptiveOptions configures RunAdaptive.
type AdaptiveOptions struct {
	// Rule is the stopping rule (required).
	Rule StopRule
	// Extract maps a finished replication to the target metric (required).
	// It is handed the very Result the Runner returned.
	Extract func(*scenario.Result) float64
	// MinReps is the smallest rep count a decision may rest on and
	// MaxReps caps the replications; RepBounds defaults and checks both.
	MinReps int
	MaxReps int
	// Jobs bounds concurrently executing reps; <= 0 means GOMAXPROCS.
	Jobs int
	// Runner and Progress are Options'.
	Runner   func(context.Context, scenario.Config) (*scenario.Result, bool, error)
	Progress func(Event)
}

// AdaptiveResult is the outcome of an adaptive replication run. Reps,
// Values, Mean, CI95 and Verdict cover exactly the consumed prefix and
// are identical under any Jobs setting.
type AdaptiveResult struct {
	Config  scenario.Config
	Verdict Verdict
	Reps    []*scenario.Result
	Values  []float64
	Mean    float64
	CI95    float64
}

// RepBounds is the one replication-bound rule: it maps requested
// MinReps/MaxReps to the bounds RunAdaptive uses — MinReps <= 0 means 3
// and is raised to 2 (no CI exists below), MaxReps <= 0 means 8 — and
// fails when the cap is below the minimum. The effective bounds are
// returned with the error too, so callers can phrase their own message.
func RepBounds(minReps, maxReps int) (int, int, error) {
	if minReps <= 0 {
		minReps = 3
	}
	if minReps < 2 {
		minReps = 2
	}
	if maxReps <= 0 {
		maxReps = 8
	}
	if maxReps < minReps {
		return minReps, maxReps, fmt.Errorf("sweep: MaxReps %d < MinReps %d", maxReps, minReps)
	}
	return minReps, maxReps, nil
}

// RunAdaptive replicates cfg until opts.Rule decides, MaxReps is
// reached, or ctx is done. It builds no RunSet aggregates: the result
// holds the consumed reps and their values only.
func RunAdaptive(ctx context.Context, cfg scenario.Config, opts AdaptiveOptions) (*AdaptiveResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := opts.Rule.validate(); err != nil {
		return nil, err
	}
	p, err := newPool([]Group{{Configs: []scenario.Config{cfg}}}, Options{
		Reps: opts.MaxReps, Jobs: opts.Jobs,
		Rule: opts.Rule, Extract: opts.Extract, MinReps: opts.MinReps,
		Runner: opts.Runner, Progress: opts.Progress,
	})
	if err != nil {
		return nil, err
	}
	if err := p.run(ctx); err != nil {
		return nil, err
	}
	f := p.folds[0]
	return &AdaptiveResult{
		Config: cfg, Verdict: f.verdict, Reps: p.results(0),
		Values: f.values, Mean: f.mean, CI95: f.ci95,
	}, nil
}
