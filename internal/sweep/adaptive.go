package sweep

import (
	"context"
	"fmt"
	"math"
	"time"

	"kadre/internal/par"
	"kadre/internal/scenario"
	"kadre/internal/stats"
)

// Adaptive-precision replication: instead of running a fixed -reps R,
// RunAdaptive replicates a configuration until the Student-t 95%
// confidence interval on a target metric is DECIDED — entirely on one
// side of a query threshold, or tight enough relative to its mean — and
// stops. Capacity-planning queries ("does config X stay k-connected
// under attack Y?") usually decide after a handful of replications; the
// fixed-R schedule pays the worst case every time.
//
// Determinism is the same hard contract as Run's: the rep schedule and
// the stopping rule depend only on derived seeds and accumulated
// statistics, never on worker timing. Reps execute in waves of at most
// Jobs, but the decision fold consumes results strictly in replication
// order, so the stop index — and therefore the returned rep count,
// values and aggregates — is byte-identical under any worker count.
// Workers may speculatively execute reps beyond the stop index inside
// the final wave; those results (and any errors they raise) are
// discarded, exactly as if they had never been scheduled.
//
// Cancellation composes with that contract: RunAdaptive takes a Context
// that propagates into every replication (the default runner hands it to
// scenario.RunBoundCtx, where the event kernel polls it at event-batch
// boundaries), and the wave loop checks it before scheduling more work.
// Reps consumed before the cancellation point form a deterministic
// prefix — their values and progress updates are exactly those of an
// uncanceled run — and the error returned wraps ctx's cause, so callers
// distinguish a canceled query from a failed one with errors.Is.

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

// RepUpdate reports one consumed replication to the Progress callback,
// in replication order (rep 0 first, no gaps): the rep's own metric
// value plus the statistics over every rep consumed so far. Everything
// except Elapsed and Cached is deterministic for a config — the stream
// a server can forward to clients verbatim.
type RepUpdate struct {
	Rep     int     // replication index, 0-based
	Seed    int64   // derived seed the rep used
	Value   float64 // the rep's metric value
	Reps    int     // reps consumed so far, including this one
	Mean    float64 // running mean over consumed reps
	CI95    float64 // running 95% CI half-width (NaN below two reps)
	Decided bool    // the rule decided at this rep
	Verdict Verdict // decided verdict, or VerdictUndecided
	Cached  bool    // the Runner answered from warm state (e.g. an arena)
	Elapsed time.Duration
}

// AdaptiveOptions configures RunAdaptive.
type AdaptiveOptions struct {
	// Rule is the stopping rule (required).
	Rule StopRule
	// Extract maps a finished replication to the target metric (required).
	Extract func(*scenario.Result) float64
	// MinReps is the smallest rep count a decision may rest on and
	// MaxReps caps the replications; RepBounds defaults and checks both.
	MinReps int
	MaxReps int
	// Jobs bounds concurrently executing reps; <= 0 means GOMAXPROCS.
	Jobs int
	// Runner executes one replication (its config carries the derived
	// seed) under RunAdaptive's context: implementations must abandon the
	// rep and return ctx's error once the context is done. The bool
	// reports whether the result came from warm state (surfaced as
	// RepUpdate.Cached). Nil means scenario.RunBoundCtx.
	Runner func(context.Context, scenario.Config) (*scenario.Result, bool, error)
	// Progress, when set, receives one RepUpdate per consumed rep, in
	// replication order, serially.
	Progress func(RepUpdate)
}

// AdaptiveResult is the outcome of an adaptive replication run. Reps,
// Values, Mean, CI95 and Verdict cover exactly the consumed prefix and
// are identical under any Jobs setting; Executed additionally counts
// discarded speculative reps and may vary.
type AdaptiveResult struct {
	Config  scenario.Config
	Verdict Verdict
	Reps    []*scenario.Result
	Values  []float64
	Mean    float64
	CI95    float64
	// Executed counts every rep that actually ran, including speculative
	// ones beyond the stop index. Diagnostics only — worker-dependent.
	Executed int
}

// RunSet assembles the consumed reps into a RunSet with cross-rep
// aggregates, so adaptive runs feed the same rendering and JSON
// pipeline as fixed-R sweeps.
func (ar *AdaptiveResult) RunSet() (*RunSet, error) {
	rs := &RunSet{Config: ar.Config, Reps: ar.Reps}
	rs.Config.Seed = DeriveSeed(ar.Config.Seed, 0)
	if err := rs.Aggregate(); err != nil {
		return nil, fmt.Errorf("sweep: adaptive config %q: %w", ar.Config.Name, err)
	}
	return rs, nil
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
// reached, or ctx is done. See the package comment on adaptive
// determinism and cancellation: the returned result is byte-identical
// for any Jobs value, and a canceled run returns an error wrapping
// ctx's cause after a deterministic prefix of progress updates.
func RunAdaptive(ctx context.Context, cfg scenario.Config, opts AdaptiveOptions) (*AdaptiveResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Extract == nil {
		return nil, fmt.Errorf("sweep: adaptive run needs an Extract metric")
	}
	if err := opts.Rule.validate(); err != nil {
		return nil, err
	}
	minReps, maxReps, err := RepBounds(opts.MinReps, opts.MaxReps)
	if err != nil {
		return nil, err
	}
	runner := opts.Runner
	if runner == nil {
		runner = func(ctx context.Context, c scenario.Config) (*scenario.Result, bool, error) {
			r, _, err := scenario.RunBoundCtx(ctx, c)
			return r, false, err
		}
	}

	type repOut struct {
		res     *scenario.Result
		cached  bool
		elapsed time.Duration
	}
	ar := &AdaptiveResult{Config: cfg, Verdict: VerdictUndecided}
	wave := par.Jobs(opts.Jobs, maxReps)
	for next := 0; next < maxReps; {
		// Wave-boundary cancellation check: never schedule another wave of
		// simulations for a caller that has already gone away.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sweep: adaptive run %q canceled: %w", cfg.Name, err)
		}
		batch := wave
		if batch > maxReps-next {
			batch = maxReps - next
		}
		idxs := make([]int, batch)
		for i := range idxs {
			idxs[i] = next + i
		}
		outs, mapErr := par.Map(opts.Jobs, idxs, func(_ int, rep int) (repOut, error) {
			rc := cfg
			rc.Seed = DeriveSeed(cfg.Seed, rep)
			start := time.Now()
			res, cached, err := runner(ctx, rc)
			if err != nil {
				return repOut{}, fmt.Errorf("scenario %q rep %d (seed %d): %w", cfg.Name, rep, rc.Seed, err)
			}
			return repOut{res: res, cached: cached, elapsed: time.Since(start)}, nil
		})
		// Fold strictly in rep order. A failed rep surfaces its error only
		// if the fold reaches it undecided — a speculative failure beyond
		// the stop index is discarded, exactly as under Jobs=1 where it
		// would never have been scheduled.
		for i, out := range outs {
			if out.res == nil {
				return nil, mapErr
			}
			ar.Executed++
			rep := next + i
			v := opts.Extract(out.res)
			ar.Reps = append(ar.Reps, out.res)
			ar.Values = append(ar.Values, v)
			ar.Mean = stats.Mean(ar.Values)
			ar.CI95 = stats.CI95Half(ar.Values)
			verdict, decided := VerdictUndecided, false
			if len(ar.Values) >= minReps {
				verdict, decided = opts.Rule.decide(ar.Mean, ar.CI95)
			}
			if opts.Progress != nil {
				opts.Progress(RepUpdate{
					Rep: rep, Seed: DeriveSeed(cfg.Seed, rep), Value: v,
					Reps: len(ar.Values), Mean: ar.Mean, CI95: ar.CI95,
					Decided: decided, Verdict: verdict,
					Cached: out.cached, Elapsed: out.elapsed,
				})
			}
			if decided {
				ar.Verdict = verdict
				return ar, nil
			}
		}
		if mapErr != nil {
			return nil, mapErr
		}
		next += batch
	}
	return ar, nil
}
