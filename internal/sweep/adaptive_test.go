package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"kadre/internal/scenario"
	"kadre/internal/stats"
)

// fakeRunner fabricates deterministic per-seed results without running a
// simulation: the metric value is a seeded pseudo-random draw around a
// chosen mean, so stopping-rule behavior can be exercised across many
// fixtures cheaply. The draw depends only on the config's seed.
func fakeRunner(mean, spread float64) func(context.Context, scenario.Config) (*scenario.Result, bool, error) {
	return func(_ context.Context, cfg scenario.Config) (*scenario.Result, bool, error) {
		x := uint64(cfg.Seed) * 0x9E3779B97F4A7C15
		x ^= x >> 29
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 32
		// Uniform in [-spread, spread) around mean.
		u := float64(x%(1<<20))/float64(1<<20)*2 - 1
		v := mean + u*spread
		res := &scenario.Result{Config: cfg.WithDefaults()}
		res.Points = append(res.Points, scenario.SnapshotStat{
			Time: time.Minute, N: 10, Min: int(math.Max(0, math.Round(v))), Avg: v,
		})
		return res, false, nil
	}
}

func finalAvg(r *scenario.Result) float64 { return r.Points[len(r.Points)-1].Avg }

func TestStopRuleDecide(t *testing.T) {
	cases := []struct {
		rule        StopRule
		mean, half  float64
		wantVerdict Verdict
		wantDecided bool
	}{
		{StopAtThreshold(5), 7, 1, VerdictPass, true},
		{StopAtThreshold(5), 6, 1, VerdictPass, true}, // lo == thr: pass
		{StopAtThreshold(5), 3, 1, VerdictFail, true},
		{StopAtThreshold(5), 4.5, 1, VerdictUndecided, false},
		{StopAtThreshold(5), 5, 0, VerdictPass, true}, // zero-variance at thr
		{StopAtThreshold(5), 7, math.NaN(), VerdictUndecided, false},
		{StopAtPrecision(0.1), 10, 0.5, VerdictResolved, true},
		{StopAtPrecision(0.1), 10, 2, VerdictUndecided, false},
		{StopAtPrecision(0.1), 0, 0, VerdictResolved, true}, // all-zero sample
		{StopAtPrecision(0.1), 0, math.NaN(), VerdictUndecided, false},
	}
	for i, c := range cases {
		v, d := c.rule.decide(c.mean, c.half)
		if v != c.wantVerdict || d != c.wantDecided {
			t.Errorf("case %d: decide(%v, %v) = (%s, %v), want (%s, %v)",
				i, c.mean, c.half, v, d, c.wantVerdict, c.wantDecided)
		}
	}
}

// TestAdaptiveDeterministicAcrossJobs pins the adaptive contract on real
// simulations: rep counts, values, aggregates and the rep-ordered update
// stream are byte-identical under any worker count (run with -race).
func TestAdaptiveDeterministicAcrossJobs(t *testing.T) {
	cfg := tinyConfig("adaptive-det", 11)
	run := func(jobs int) (*AdaptiveResult, string) {
		var updates []Event
		ar, err := RunAdaptive(context.Background(), cfg, AdaptiveOptions{
			// A threshold far above any tiny network's average keeps the
			// verdict a quick, decisive fail.
			Rule:    StopAtThreshold(1000),
			Extract: func(r *scenario.Result) float64 { return r.ChurnWindowSummary().Mean },
			MinReps: 2, MaxReps: 6, Jobs: jobs,
			Progress: func(u Event) {
				u.Elapsed = 0 // wall-clock is the one nondeterministic field
				updates = append(updates, u)
			},
		})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		// fmt, not JSON: the rep-0 update carries a NaN CI half-width.
		return ar, fmt.Sprintf("%+v", updates)
	}
	ar1, stream1 := run(1)
	ar8, stream8 := run(8)
	if len(ar1.Reps) != len(ar8.Reps) {
		t.Fatalf("rep counts differ: jobs=1 %d, jobs=8 %d", len(ar1.Reps), len(ar8.Reps))
	}
	if ar1.Verdict != ar8.Verdict {
		t.Fatalf("verdicts differ: %s vs %s", ar1.Verdict, ar8.Verdict)
	}
	if !reflect.DeepEqual(ar1.Values, ar8.Values) {
		t.Fatalf("values differ:\n%v\n%v", ar1.Values, ar8.Values)
	}
	if ar1.Mean != ar8.Mean || !(ar1.CI95 == ar8.CI95 || (math.IsNaN(ar1.CI95) && math.IsNaN(ar8.CI95))) {
		t.Fatalf("aggregates differ: (%v, %v) vs (%v, %v)", ar1.Mean, ar1.CI95, ar8.Mean, ar8.CI95)
	}
	if stream1 != stream8 {
		t.Fatalf("update streams differ:\n%s\n%s", stream1, stream8)
	}
	for i := range ar1.Reps {
		r1, r8 := *ar1.Reps[i], *ar8.Reps[i]
		r1.Elapsed, r8.Elapsed = 0, 0 // wall-clock, as in the updates
		if !reflect.DeepEqual(r1, r8) {
			t.Fatalf("rep %d differs across jobs:\n%+v\n%+v", i, r1, r8)
		}
	}
}

// TestAdaptiveStopsEarly asserts the point of the exercise: a decisive
// query consumes fewer reps than the cap, and its updates arrive in rep
// order with monotonically consumed counts.
func TestAdaptiveStopsEarly(t *testing.T) {
	var updates []Event
	ar, err := RunAdaptive(context.Background(), scenario.Config{Name: "early", Seed: 3, Size: 10}, AdaptiveOptions{
		Rule:    StopAtThreshold(5),
		Extract: finalAvg,
		MinReps: 2, MaxReps: 64, Jobs: 4,
		Runner:   fakeRunner(20, 1), // mean 20 >> threshold 5: decides at MinReps
		Progress: func(u Event) { updates = append(updates, u) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if ar.Verdict != VerdictPass {
		t.Fatalf("verdict = %s, want pass", ar.Verdict)
	}
	if len(ar.Reps) != 2 {
		t.Fatalf("consumed %d reps, want 2 (decide at MinReps)", len(ar.Reps))
	}
	for i, u := range updates {
		if u.Rep != i || u.Reps != i+1 {
			t.Fatalf("update %d out of order: rep=%d reps=%d", i, u.Rep, u.Reps)
		}
	}
	if last := updates[len(updates)-1]; !last.Decided || last.Verdict != VerdictPass {
		t.Fatalf("last update not decided: %+v", last)
	}
}

// TestAdaptiveVerdictAgreesWithFull is the agreement property on seeded
// fixtures: whenever an early stop declares pass or fail, the verdict of
// the full MaxReps replication (the fixed-R answer a batch sweep would
// give) is the same. Fixtures place the mean at least one spread away
// from the threshold so the full-sample CI is decided too.
func TestAdaptiveVerdictAgreesWithFull(t *testing.T) {
	const threshold = 10.0
	const maxReps = 12
	fixtures := 0
	for seed := int64(1); seed <= 60; seed++ {
		for _, mean := range []float64{4, 7, 13, 16} {
			spread := 2.0 // |mean - threshold| >= 3 > spread: well-separated
			cfg := scenario.Config{Name: "prop", Seed: seed, Size: 10}
			runner := fakeRunner(mean, spread)
			early, err := RunAdaptive(context.Background(), cfg, AdaptiveOptions{
				Rule: StopAtThreshold(threshold), Extract: finalAvg,
				MinReps: 3, MaxReps: maxReps, Jobs: 4, Runner: runner,
			})
			if err != nil {
				t.Fatal(err)
			}
			if early.Verdict == VerdictUndecided {
				continue // cap reached: nothing to compare
			}
			// The full-replication answer: all maxReps values, one CI.
			var values []float64
			for rep := 0; rep < maxReps; rep++ {
				rc := cfg
				rc.Seed = DeriveSeed(cfg.Seed, rep)
				r, _, err := runner(context.Background(), rc)
				if err != nil {
					t.Fatal(err)
				}
				values = append(values, finalAvg(r))
			}
			m, h := stats.Mean(values), stats.CI95Half(values)
			full, decided := StopAtThreshold(threshold).decide(m, h)
			if !decided {
				t.Fatalf("seed %d mean %v: full-replication CI undecided (mean %v half %v)", seed, mean, m, h)
			}
			if full != early.Verdict {
				t.Fatalf("seed %d mean %v: early verdict %s (after %d reps) != full verdict %s",
					seed, mean, early.Verdict, len(early.Reps), full)
			}
			fixtures++
		}
	}
	if fixtures < 100 {
		t.Fatalf("only %d decided fixtures exercised, want >= 100", fixtures)
	}
}

func TestAdaptiveOptionValidation(t *testing.T) {
	cfg := scenario.Config{Name: "v", Seed: 1, Size: 10}
	if _, err := RunAdaptive(context.Background(), cfg, AdaptiveOptions{Rule: StopAtThreshold(1)}); err == nil {
		t.Fatal("missing Extract must error")
	}
	if _, err := RunAdaptive(context.Background(), cfg, AdaptiveOptions{Extract: finalAvg}); err == nil {
		t.Fatal("empty rule must error")
	}
	if _, err := RunAdaptive(context.Background(), cfg, AdaptiveOptions{
		Rule: StopAtThreshold(1), Extract: finalAvg, MinReps: 6, MaxReps: 4,
	}); err == nil {
		t.Fatal("MaxReps < MinReps must error")
	}
}

// TestRepBounds pins the one replication-bound rule that RunAdaptive,
// kadserve's query resolver and kadsweep -ci-stop share.
func TestRepBounds(t *testing.T) {
	for _, tc := range []struct {
		min, max, wantMin, wantMax int
		wantErr                    bool
	}{
		{0, 0, 3, 8, false},
		{-1, -1, 3, 8, false},
		{1, 5, 2, 5, false},
		{4, 4, 4, 4, false},
		{0, 2, 3, 2, true},
		{6, 4, 6, 4, true},
	} {
		gotMin, gotMax, err := RepBounds(tc.min, tc.max)
		if gotMin != tc.wantMin || gotMax != tc.wantMax || (err != nil) != tc.wantErr {
			t.Errorf("RepBounds(%d, %d) = %d, %d, %v; want %d, %d, error %v",
				tc.min, tc.max, gotMin, gotMax, err, tc.wantMin, tc.wantMax, tc.wantErr)
		}
	}
}

// TestAdaptivePreCanceled pins the wave-boundary check: a context done
// before the first wave schedules nothing and surfaces the cause.
func TestAdaptivePreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	_, err := RunAdaptive(ctx, scenario.Config{Name: "pre", Seed: 1, Size: 10}, AdaptiveOptions{
		Rule: StopAtThreshold(5), Extract: finalAvg, MaxReps: 8,
		Runner: func(ctx context.Context, c scenario.Config) (*scenario.Result, bool, error) {
			ran++
			return fakeRunner(20, 1)(ctx, c)
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 0 {
		t.Fatalf("%d reps ran under a pre-canceled context, want 0", ran)
	}
}

// TestAdaptiveCancelMidRun cancels from the progress callback after the
// first consumed rep: reps already consumed form a deterministic prefix
// of updates, in-flight reps abort through their runner's context, and
// the returned error wraps context.Canceled (run with -race: the cancel
// races real worker goroutines).
func TestAdaptiveCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var updates []Event
	// An undecidable rule (huge spread, threshold at the mean) would
	// replicate to the cap; cancellation is the only way this run ends.
	_, err := RunAdaptive(ctx, scenario.Config{Name: "mid", Seed: 5, Size: 10}, AdaptiveOptions{
		Rule: StopAtThreshold(10), Extract: finalAvg,
		MinReps: 2, MaxReps: 256, Jobs: 2,
		Runner: func(ctx context.Context, c scenario.Config) (*scenario.Result, bool, error) {
			if err := ctx.Err(); err != nil {
				return nil, false, err
			}
			return fakeRunner(10, 20)(ctx, c)
		},
		Progress: func(u Event) {
			updates = append(updates, u)
			cancel()
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(updates) == 0 {
		t.Fatal("no updates consumed before cancellation")
	}
	for i, u := range updates {
		if u.Rep != i {
			t.Fatalf("update %d out of order after cancel: %+v", i, u)
		}
	}
}

// TestAdaptiveRunnerSeesDeadline pins that the context handed to the
// runner is RunAdaptive's own: a deadline set by the caller is visible
// inside every replication.
func TestAdaptiveRunnerSeesDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	// Runners execute concurrently, one per rep in a wave.
	var lostDeadline atomic.Bool
	_, err := RunAdaptive(ctx, scenario.Config{Name: "dl", Seed: 2, Size: 10}, AdaptiveOptions{
		Rule: StopAtThreshold(5), Extract: finalAvg, MinReps: 2, MaxReps: 3,
		Runner: func(ctx context.Context, c scenario.Config) (*scenario.Result, bool, error) {
			if _, ok := ctx.Deadline(); !ok {
				lostDeadline.Store(true)
			}
			return fakeRunner(20, 1)(ctx, c)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if lostDeadline.Load() {
		t.Fatal("runner context lost the caller's deadline")
	}
}
