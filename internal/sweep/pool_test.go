package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kadre/internal/scenario"
)

// countingRunner is fakeRunner with each config's K as the mean and its
// Alpha as the spread. It counts the runs it executes by run key, delays
// every rep 0 (the one run of a config on its own seed, below 100 in
// these fixtures) by delay, and remembers every Result it returned.
type countingRunner struct {
	delay    time.Duration
	mu       sync.Mutex
	runs     map[string]int
	returned map[*scenario.Result]bool
}

func newCountingRunner(delay time.Duration) *countingRunner {
	return &countingRunner{delay: delay, runs: map[string]int{}, returned: map[*scenario.Result]bool{}}
}

func (cr *countingRunner) run(ctx context.Context, cfg scenario.Config) (*scenario.Result, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	if cfg.Seed < 100 {
		time.Sleep(cr.delay)
	}
	res, _, err := fakeRunner(float64(cfg.K), float64(cfg.Alpha))(ctx, cfg)
	cr.mu.Lock()
	defer cr.mu.Unlock()
	cr.runs[Key(cfg)]++
	cr.returned[res] = true
	return res, false, err
}

// adaptiveGroups is two groups of fake configs: a tight one that decides
// at MinReps, looser ones that need more reps or the whole budget.
func adaptiveGroups() []Group {
	cfg := func(name string, seed int64, mean, spread int) scenario.Config {
		return scenario.Config{Name: name, Seed: seed, Size: 10 + mean, K: mean, Alpha: spread}
	}
	return []Group{
		{Name: "x", Configs: []scenario.Config{cfg("x/tight", 1, 20, 1), cfg("x/loose", 2, 10, 9)}},
		{Name: "y", Configs: []scenario.Config{cfg("y/mid", 3, 15, 4), cfg("y/wide", 4, 8, 8)}},
	}
}

func adaptiveOptions(jobs int, runner *countingRunner, progress func(Event)) Options {
	return Options{
		Reps: 12, Jobs: jobs, Rule: StopAtPrecision(0.05), Extract: finalAvg, MinReps: 2,
		Runner: runner.run, Progress: progress,
	}
}

// eventKey prints an event without its timing and global counter, so a
// config's events compare across worker counts (fmt, since CI95 may be
// NaN).
func eventKey(ev Event) string {
	ev.Elapsed, ev.Done = 0, 0
	return fmt.Sprintf("%+v", ev)
}

// TestRunGroupsAdaptiveDeterministicAcrossJobs pins the one executor's
// adaptive contract over several groups (run with -race): stop indices,
// values, RunSets and each config's event stream are identical for one
// worker and for eight.
func TestRunGroupsAdaptiveDeterministicAcrossJobs(t *testing.T) {
	sweep := func(jobs int) ([]string, map[string][]string) {
		events := map[string][]string{}
		sets, err := RunGroups(context.Background(), adaptiveGroups(), adaptiveOptions(jobs, newCountingRunner(0), func(ev Event) {
			if want := len(events[ev.Name]); ev.Rep != want || ev.Reps != want+1 {
				t.Errorf("jobs=%d: %s reported rep %d (%d consumed), want rep %d", jobs, ev.Name, ev.Rep, ev.Reps, want)
			}
			events[ev.Name] = append(events[ev.Name], eventKey(ev))
		}))
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		var docs []string
		for _, g := range sets {
			var buf bytes.Buffer
			if err := WriteJSON(&buf, JSONMeta{Experiment: "det"}, g); err != nil {
				t.Fatal(err)
			}
			docs = append(docs, buf.String())
		}
		return docs, events
	}
	docs1, events1 := sweep(1)
	docs8, events8 := sweep(8)
	if !reflect.DeepEqual(docs1, docs8) {
		t.Fatal("RunSets differ between jobs=1 and jobs=8")
	}
	if !reflect.DeepEqual(events1, events8) {
		t.Fatalf("event streams differ:\n%v\n%v", events1, events8)
	}
	early, full := 0, 0
	for _, evs := range events1 {
		switch len(evs) {
		case 12:
			full++
		default:
			early++
		}
	}
	if early == 0 || full == 0 {
		t.Fatalf("%d configs stopped early and %d ran the budget; the fixture wants both", early, full)
	}
}

// TestRunGroupsAdaptiveSpeculationBound pins that a config's reps are
// released Jobs at a time: fewer than Jobs reps execute past its stop
// index, and no run executes twice. A slow rep 0 leaves the workers free
// to run ahead, were they allowed to.
func TestRunGroupsAdaptiveSpeculationBound(t *testing.T) {
	const jobs = 4
	cr := newCountingRunner(20 * time.Millisecond)
	sets, err := RunGroups(context.Background(), adaptiveGroups(), adaptiveOptions(jobs, cr, nil))
	if err != nil {
		t.Fatal(err)
	}
	for gi, g := range adaptiveGroups() {
		for ci, cfg := range g.Configs {
			stop, executed := len(sets[gi][ci].Reps), 0
			for r := 0; r < 12; r++ {
				rc := cfg
				rc.Seed = DeriveSeed(cfg.Seed, r)
				switch n := cr.runs[Key(rc)]; {
				case n > 1:
					t.Errorf("%s rep %d executed %d times", cfg.Name, r, n)
				case n == 1:
					executed++
				}
			}
			if executed < stop || executed-stop >= jobs {
				t.Errorf("%s executed %d reps for a stop index of %d, want fewer than %d past it", cfg.Name, executed, stop, jobs)
			}
		}
	}
}

// TestRunGroupsDiscardsFailedSpeculativeRep pins that a rep failing past
// the stop index is discarded as if never scheduled, while a failure the
// fold reaches undecided fails the sweep.
func TestRunGroupsDiscardsFailedSpeculativeRep(t *testing.T) {
	cfg := scenario.Config{Name: "spec", Seed: 7, Size: 10}
	errSpec := errors.New("speculative failure")
	for _, jobs := range []int{1, 4} {
		// With four workers the first window holds reps 0-3, and reps 0
		// and 1 finish only after both failing reps have run.
		var failed atomic.Int32
		bothFailed := make(chan struct{})
		runner := func(ctx context.Context, c scenario.Config) (*scenario.Result, bool, error) {
			if c.Seed != DeriveSeed(cfg.Seed, 0) && c.Seed != DeriveSeed(cfg.Seed, 1) {
				if failed.Add(1) == 2 {
					close(bothFailed)
				}
				return nil, false, errSpec
			}
			if jobs > 1 {
				<-bothFailed
			}
			return fakeRunner(20, 1)(ctx, c)
		}
		sets, err := Run([]scenario.Config{cfg}, Options{
			Reps: 8, Jobs: jobs, Rule: StopAtThreshold(5), Extract: finalAvg, MinReps: 2, Runner: runner,
		})
		if err != nil {
			t.Fatalf("jobs=%d: a speculative failure surfaced: %v", jobs, err)
		}
		if n := len(sets[0].Reps); n != 2 {
			t.Fatalf("jobs=%d: %d reps, want the 2 the rule decided on", jobs, n)
		}
	}

	// An undecidable rule folds into the failure at rep 2.
	_, err := Run([]scenario.Config{cfg}, Options{
		Reps: 8, Jobs: 1, Rule: StopAtThreshold(20), Extract: finalAvg, MinReps: 2,
		Runner: func(ctx context.Context, c scenario.Config) (*scenario.Result, bool, error) {
			if c.Seed == DeriveSeed(cfg.Seed, 2) {
				return nil, false, errSpec
			}
			return fakeRunner(20, 10)(ctx, c)
		},
	})
	if !errors.Is(err, errSpec) || !strings.Contains(err.Error(), "rep 2") {
		t.Fatalf("err = %v, want rep 2's failure", err)
	}
}

// TestRunGroupsSharedAdaptiveRunExecutesOnce pins dedup for adaptive
// configs: two groups declaring one config under two names execute each
// rep once, fold the same values, and Extract sees only Results the
// runner returned.
func TestRunGroupsSharedAdaptiveRunExecutesOnce(t *testing.T) {
	a := scenario.Config{Name: "figure/a", Seed: 3, Size: 10, K: 10, Alpha: 4}
	b := a
	b.Name = "table/a"
	cr := newCountingRunner(0)
	events := 0
	opts := adaptiveOptions(4, cr, func(Event) { events++ })
	opts.Extract = func(r *scenario.Result) float64 {
		cr.mu.Lock()
		defer cr.mu.Unlock()
		if !cr.returned[r] {
			t.Error("Extract was handed a Result the runner did not return")
		}
		return finalAvg(r)
	}
	sets, err := RunGroups(context.Background(), []Group{
		{Name: "figure", Configs: []scenario.Config{a}},
		{Name: "table", Configs: []scenario.Config{b}},
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for key, n := range cr.runs {
		if n != 1 {
			t.Errorf("run %s executed %d times", key, n)
		}
	}
	fig, tab := sets[0][0], sets[1][0]
	if len(fig.Reps) != len(tab.Reps) || events != len(fig.Reps) {
		t.Fatalf("reps %d and %d, %d events; want equal counts, one event per run", len(fig.Reps), len(tab.Reps), events)
	}
	for r := range tab.Reps {
		if tab.Reps[r].Config.Name != b.Name || finalAvg(tab.Reps[r]) != finalAvg(fig.Reps[r]) {
			t.Fatalf("rep %d: the later declarer's copy is %q with value %v, want %q with %v",
				r, tab.Reps[r].Config.Name, finalAvg(tab.Reps[r]), b.Name, finalAvg(fig.Reps[r]))
		}
	}
}

// TestRunGroupsCancelKeepsPrefix cancels an adaptive sweep from its third
// event: the error wraps context.Canceled, and each config's events are
// a prefix of an uncanceled sweep's (with one worker, the whole stream
// is).
func TestRunGroupsCancelKeepsPrefix(t *testing.T) {
	var whole []string
	perConfig := map[string][]string{}
	if _, err := RunGroups(context.Background(), adaptiveGroups(), adaptiveOptions(1, newCountingRunner(0), func(ev Event) {
		whole = append(whole, eventKey(ev))
		perConfig[ev.Name] = append(perConfig[ev.Name], eventKey(ev))
	})); err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var stream []string
		got := map[string][]string{}
		_, err := RunGroups(ctx, adaptiveGroups(), adaptiveOptions(jobs, newCountingRunner(0), func(ev Event) {
			stream = append(stream, eventKey(ev))
			got[ev.Name] = append(got[ev.Name], eventKey(ev))
			if len(stream) == 3 {
				cancel()
			}
		}))
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("jobs=%d: err = %v, want context.Canceled", jobs, err)
		}
		if len(stream) >= len(whole) {
			t.Fatalf("jobs=%d: the canceled sweep reported all %d runs", jobs, len(stream))
		}
		for name, evs := range got {
			if !reflect.DeepEqual(evs, perConfig[name][:len(evs)]) {
				t.Fatalf("jobs=%d: %s's events are not a prefix of the uncanceled sweep's:\n%v\n%v", jobs, name, evs, perConfig[name])
			}
		}
		if jobs == 1 && !reflect.DeepEqual(stream, whole[:len(stream)]) {
			t.Fatalf("one worker: events are not a prefix of the uncanceled stream:\n%v\n%v", stream, whole)
		}
	}
}

// TestRunGroupsFirstFailureInDispatchOrder pins which failure a fixed
// sweep reports: that of the failing run first in dispatch order, for
// any worker count. With one worker nothing after it runs.
func TestRunGroupsFirstFailureInDispatchOrder(t *testing.T) {
	var cfgs []scenario.Config
	for i, size := range []int{10, 50, 20, 40, 30} {
		cfgs = append(cfgs, scenario.Config{Name: fmt.Sprintf("n%d", size), Seed: int64(i + 1), Size: size})
	}
	for _, jobs := range []int{1, 4} {
		var mu sync.Mutex
		var ran []string
		_, err := Run(cfgs, Options{Jobs: jobs, Runner: func(ctx context.Context, c scenario.Config) (*scenario.Result, bool, error) {
			mu.Lock()
			ran = append(ran, c.Name)
			mu.Unlock()
			if c.Size == 40 || c.Size == 20 {
				return nil, false, fmt.Errorf("boom %d", c.Size)
			}
			return fakeRunner(1, 0)(ctx, c)
		}})
		if err == nil || !strings.Contains(err.Error(), "boom 40") {
			t.Fatalf("jobs=%d: err = %v, want n40's, the first failing run by cost", jobs, err)
		}
		if jobs == 1 && fmt.Sprint(ran) != "[n50 n40]" {
			t.Fatalf("one worker ran %v, want [n50 n40]", ran)
		}
	}
}

// TestRunGroupsRunsEverythingBeforeFailure pins what a failure may skip:
// every run dispatched before the first failing one runs for any worker
// count (one of them could fail first), and with one worker nothing
// after it does.
func TestRunGroupsRunsEverythingBeforeFailure(t *testing.T) {
	const n, failAt = 20, 7
	var cfgs []scenario.Config
	for i := 0; i < n; i++ {
		cfgs = append(cfgs, scenario.Config{Name: fmt.Sprint(i), Seed: int64(i + 1), Size: 100 - i})
	}
	for _, jobs := range []int{1, 4} {
		var mu sync.Mutex
		ran := map[string]bool{}
		_, err := Run(cfgs, Options{Jobs: jobs, Runner: func(ctx context.Context, c scenario.Config) (*scenario.Result, bool, error) {
			mu.Lock()
			ran[c.Name] = true
			mu.Unlock()
			if c.Name == fmt.Sprint(failAt) {
				return nil, false, errors.New("failure")
			}
			return fakeRunner(1, 0)(ctx, c)
		}})
		if err == nil {
			t.Fatalf("jobs=%d: expected error", jobs)
		}
		for i := 0; i <= failAt; i++ {
			if !ran[fmt.Sprint(i)] {
				t.Fatalf("jobs=%d: run %d before the failure did not run", jobs, i)
			}
		}
		for i := failAt + 1; jobs == 1 && i < n; i++ {
			if ran[fmt.Sprint(i)] {
				t.Fatalf("one worker: run %d after the failure ran", i)
			}
		}
	}
}

// TestRunGroupsFailureSkipsOnlyItsGroup pins that a failure stops only
// its own group. Runs 0..9 are dispatched in that order, even ones in
// group "even", odd ones in group "odd"; runs 2 and 5 fail. With one
// worker "even" stops after run 2 while "odd" runs up to its own failure
// at 5, and the error is run 2's.
func TestRunGroupsFailureSkipsOnlyItsGroup(t *testing.T) {
	groups := []Group{{Name: "even"}, {Name: "odd"}}
	for i := 0; i < 10; i++ {
		g := &groups[i%2]
		g.Configs = append(g.Configs, scenario.Config{Name: fmt.Sprint(i), Seed: int64(i + 1), Size: 100 - i})
	}
	var ran []string
	out, err := RunGroups(context.Background(), groups, Options{Jobs: 1, Runner: func(ctx context.Context, c scenario.Config) (*scenario.Result, bool, error) {
		ran = append(ran, c.Name)
		if c.Name == "2" || c.Name == "5" {
			return nil, false, fmt.Errorf("boom %s", c.Name)
		}
		return fakeRunner(1, 0)(ctx, c)
	}})
	if err == nil || !strings.Contains(err.Error(), "boom 2") {
		t.Fatalf("err = %v, want boom 2", err)
	}
	if want := "[0 1 2 3 5]"; fmt.Sprint(ran) != want {
		t.Fatalf("ran %v, want %v", ran, want)
	}
	if len(out) != 2 || out[0] != nil || out[1] != nil {
		t.Fatalf("both groups failed, want nil RunSets: %+v", out)
	}
}

func TestRunGroupsEmpty(t *testing.T) {
	out, err := RunGroups(context.Background(), []Group{{Name: "none"}}, Options{Jobs: 4})
	if err != nil || len(out) != 1 || out[0] == nil || len(out[0]) != 0 {
		t.Fatalf("RunGroups over an empty group: %v, %v", out, err)
	}
}

func TestWorkers(t *testing.T) {
	if got := workers(4, 10); got != 4 {
		t.Fatalf("workers(4, 10) = %d", got)
	}
	if got := workers(8, 3); got != 3 {
		t.Fatalf("workers(8, 3) = %d, want clamp to 3", got)
	}
	if got := workers(0, 100); got < 1 {
		t.Fatalf("workers(0, 100) = %d, want >= 1", got)
	}
	if got := workers(-1, 0); got != 1 {
		t.Fatalf("workers(-1, 0) = %d, want 1", got)
	}
}
