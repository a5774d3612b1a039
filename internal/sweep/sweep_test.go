package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"kadre/internal/connectivity"
	"kadre/internal/scenario"
	"kadre/internal/workload"
)

// tinyConfig is small enough that a multi-rep sweep stays fast under the
// race detector.
func tinyConfig(name string, seed int64) scenario.Config {
	return scenario.Config{
		Name: name, Seed: seed, Size: 20, K: 5, Staleness: 1,
		Setup: 6 * time.Minute, Stabilize: 12 * time.Minute,
		SnapshotInterval: 6 * time.Minute, SampleFraction: 0.1,
	}
}

func TestDeriveSeed(t *testing.T) {
	if got := DeriveSeed(42, 0); got != 42 {
		t.Fatalf("rep 0 must keep the base seed, got %d", got)
	}
	if got := DeriveSeed(0, 0); got != 1 {
		t.Fatalf("zero base must normalize to scenario's default 1, got %d", got)
	}
	// Derived seeds must not collide across the (base, rep) pairs a sweep
	// of consecutive base seeds actually uses — presets hand out
	// seed, seed+1, ..., so plain base+rep arithmetic would alias.
	seen := map[int64][2]int64{}
	for base := int64(1); base <= 40; base++ {
		for rep := 0; rep < 8; rep++ {
			s := DeriveSeed(base, rep)
			if s == 0 {
				t.Fatalf("DeriveSeed(%d, %d) = 0", base, rep)
			}
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: (%d,%d) and (%d,%d) -> %d", prev[0], prev[1], base, rep, s)
			}
			seen[s] = [2]int64{base, int64(rep)}
		}
	}
}

func TestRunRepZeroMatchesPlainRun(t *testing.T) {
	cfg := tinyConfig("rep0", 7)
	plain, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sets, err := Run([]scenario.Config{cfg}, Options{Reps: 2, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 1 || len(sets[0].Reps) != 2 {
		t.Fatalf("got %d sets / %d reps", len(sets), len(sets[0].Reps))
	}
	if !reflect.DeepEqual(sets[0].Reps[0].Points, plain.Points) {
		t.Fatalf("rep 0 diverged from plain run:\n%+v\nvs\n%+v", sets[0].Reps[0].Points, plain.Points)
	}
	if sets[0].Reps[1].Config.Seed == cfg.Seed {
		t.Fatal("rep 1 reused the base seed")
	}
}

func TestRunAggregates(t *testing.T) {
	cfg := tinyConfig("agg", 3)
	sets, err := Run([]scenario.Config{cfg}, Options{Reps: 3, Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	rs := sets[0]
	nPoints := len(rs.Reps[0].Points)
	if nPoints == 0 {
		t.Fatal("no snapshots")
	}
	for _, agg := range []int{rs.Min.Len(), rs.Avg.Len(), rs.Size.Len()} {
		if agg != nPoints {
			t.Fatalf("aggregate has %d points, runs have %d", agg, nPoints)
		}
	}
	for i, p := range rs.Min.Points {
		if p.N != 3 {
			t.Fatalf("aggregate point %d covers %d runs, want 3", i, p.N)
		}
		if p.Mean < p.Min || p.Mean > p.Max {
			t.Fatalf("aggregate point %d mean %v outside [%v, %v]", i, p.Mean, p.Min, p.Max)
		}
	}
	if len(rs.ChurnWindowMeans()) != 3 {
		t.Fatal("churn-window means must have one entry per rep")
	}
}

// TestDeterminismAcrossJobs is the central seed-stability contract: the
// same sweep run with 1 worker and with 8 workers must produce identical
// Result.Points for every (config, rep), each set in config order. Run
// under -race in CI.
func TestDeterminismAcrossJobs(t *testing.T) {
	cfgs := []scenario.Config{tinyConfig("det-a", 11), tinyConfig("det-b", 12)}
	runWith := func(jobs int) [][]*scenario.Result {
		sets, err := Run(cfgs, Options{Reps: 2, Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]*scenario.Result, len(sets))
		for i, rs := range sets {
			out[i] = rs.Reps
		}
		return out
	}
	serial := runWith(1)
	parallel := runWith(8)
	for ci := range serial {
		for ri := range serial[ci] {
			a, b := serial[ci][ri], parallel[ci][ri]
			if a.Config.Name != cfgs[ci].Name || b.Config.Name != cfgs[ci].Name {
				t.Fatalf("set %d holds runs %q and %q, want config %q", ci, a.Config.Name, b.Config.Name, cfgs[ci].Name)
			}
			if a.Config.Seed != b.Config.Seed {
				t.Fatalf("config %d rep %d: seeds differ: %d vs %d", ci, ri, a.Config.Seed, b.Config.Seed)
			}
			if !reflect.DeepEqual(a.Points, b.Points) {
				t.Fatalf("config %d rep %d: points differ between jobs=1 and jobs=8:\n%+v\nvs\n%+v",
					ci, ri, a.Points, b.Points)
			}
			if a.Network != b.Network {
				t.Fatalf("config %d rep %d: network stats differ: %+v vs %+v", ci, ri, a.Network, b.Network)
			}
		}
	}
}

// TestTrafficRunsInParallelKeepTheirLookupPools: every run builds its own
// simnet.Network, and the Kademlia nodes of a network recycle their lookup
// records through a free list that hangs off it. Two traffic-and-churn
// runs side by side must therefore never touch each other's records —
// under -race (CI's short pass runs this) a crossed list is a reported
// race — and must produce what they produce alone.
func TestTrafficRunsInParallelKeepTheirLookupPools(t *testing.T) {
	cfgs := []scenario.Config{tinyConfig("pool-a", 21), tinyConfig("pool-b", 22)}
	for i := range cfgs {
		cfgs[i].Traffic = true
		cfgs[i].Churn = workload.Churn1_1
		cfgs[i].ChurnPhase = 6 * time.Minute
	}
	serial, err := Run(cfgs, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(cfgs, Options{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		a, b := serial[i].Reps[0], parallel[i].Reps[0]
		if a.Network.Sent == 0 || a.Network != b.Network || !reflect.DeepEqual(a.Points, b.Points) {
			t.Fatalf("%s: jobs=1 sent %+v, jobs=2 sent %+v; points equal: %v",
				cfgs[i].Name, a.Network, b.Network, reflect.DeepEqual(a.Points, b.Points))
		}
	}
}

func TestProgressEvents(t *testing.T) {
	cfgs := []scenario.Config{tinyConfig("prog", 5)}
	var mu sync.Mutex
	var events []Event
	_, err := Run(cfgs, Options{Reps: 3, Jobs: 3, Progress: func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("got %d progress events, want 3", len(events))
	}
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != 3 {
			t.Fatalf("event %d has Done=%d Total=%d", i, ev.Done, ev.Total)
		}
		if ev.Err != nil {
			t.Fatalf("event %d carries error %v", i, ev.Err)
		}
		if ev.Name != "prog" || ev.Seed == 0 {
			t.Fatalf("event %d mislabelled: %+v", i, ev)
		}
	}
}

func TestRunErrorNamesConfigAndRep(t *testing.T) {
	bad := tinyConfig("broken", 9)
	bad.Size = 1 // fails validation
	_, err := Run([]scenario.Config{tinyConfig("fine", 8), bad}, Options{Reps: 2, Jobs: 4})
	if err == nil {
		t.Fatal("expected error")
	}
	if want := `scenario "broken" rep 0`; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("error %q does not name the failing config and rep", err)
	}
}

// TestDispatchLongestExpectedFirst: with one worker the runs complete in
// dispatch order, which is descending expected cost (Size × K × simulated
// time), runs of equal cost in input order and a config's reps in rep order.
func TestDispatchLongestExpectedFirst(t *testing.T) {
	cheap := tinyConfig("cheap", 4)
	cheap.Size = 12
	dear := tinyConfig("dear", 5)
	dear.K = 8
	tieA, tieB := tinyConfig("tieA", 6), tinyConfig("tieB", 7)
	var got []string
	_, err := Run([]scenario.Config{cheap, tieA, dear, tieB}, Options{Reps: 2, Jobs: 1, Progress: func(ev Event) {
		got = append(got, fmt.Sprintf("%s/%d", ev.Name, ev.Rep))
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"dear/0", "dear/1", "tieA/0", "tieA/1", "tieB/0", "tieB/1", "cheap/0", "cheap/1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("completion order %v, want %v", got, want)
	}
}

// TestRunErrorIsFirstInDispatchOrder: of two failing configs the one
// dispatched first names the error, whatever the worker count, though it
// comes later in input order.
func TestRunErrorIsFirstInDispatchOrder(t *testing.T) {
	small := tinyConfig("small-broken", 2)
	small.Size = 1 // fails validation
	large := tinyConfig("large-broken", 3)
	large.SnapshotInterval = -time.Minute // fails validation, and costs more
	for _, jobs := range []int{1, 2} {
		_, err := Run([]scenario.Config{small, large}, Options{Jobs: jobs})
		if err == nil || !strings.Contains(err.Error(), `scenario "large-broken" rep 0`) {
			t.Fatalf("jobs %d: error %v, want the one of large-broken", jobs, err)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	cfg := tinyConfig("json", 2)
	sets, err := Run([]scenario.Config{cfg}, Options{Reps: 2, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	meta := JSONMeta{Experiment: "figureX", Title: "json test", Scale: "tiny"}
	if err := WriteJSON(&buf, meta, sets); err != nil {
		t.Fatal(err)
	}
	var doc JSONFile
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.Experiment != "figureX" || doc.Reps != 2 || len(doc.Runs) != 1 {
		t.Fatalf("document header wrong: %+v", doc)
	}
	run := doc.Runs[0]
	if run.Name != "json" || run.Size != 20 || run.K != 5 || len(run.Reps) != 2 {
		t.Fatalf("run wrong: %+v", run)
	}
	if len(run.Aggregate.Min) != len(run.Reps[0].Points) {
		t.Fatal("aggregate length mismatch")
	}
	if run.Aggregate.Min[0].CI95 == nil {
		t.Fatal("two reps must yield a finite CI")
	}

	// Byte determinism: the same sweep serializes identically.
	sets2, err := Run([]scenario.Config{cfg}, Options{Reps: 2, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := WriteJSON(&buf2, meta, sets2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("JSON output not byte-identical across jobs counts")
	}

	// Single rep: the CI is undefined and must encode as null.
	single, err := Run([]scenario.Config{cfg}, Options{Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf3 bytes.Buffer
	if err := WriteJSON(&buf3, meta, single); err != nil {
		t.Fatal(err)
	}
	var doc3 JSONFile
	if err := json.Unmarshal(buf3.Bytes(), &doc3); err != nil {
		t.Fatal(err)
	}
	if doc3.Runs[0].Aggregate.Min[0].CI95 != nil {
		t.Fatal("single-rep CI must be null")
	}
}

// TestBuildJSONDropsMemoryWhenGovernanceDisabled pins the one way left to
// a document without memory blocks: a config carrying the negative
// (explicitly disabled) policy. The default policy keeps the block.
func TestBuildJSONDropsMemoryWhenGovernanceDisabled(t *testing.T) {
	on := tinyConfig("gov-on", 2)
	off := tinyConfig("gov-off", 2)
	off.Governance = connectivity.GovernancePolicy{MaxSlotSlack: -1}
	sets, err := Run([]scenario.Config{on, off}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc := BuildJSON(JSONMeta{Experiment: "gov"}, sets)
	if doc.Runs[0].Reps[0].Memory == nil {
		t.Fatal("default governance must serialize the memory block")
	}
	if doc.Runs[1].Reps[0].Memory != nil {
		t.Fatal("disabled governance must drop the memory block")
	}
}

// TestRunGroupsMatchesSerialRuns pins the shared-pool multi-experiment
// sweep to the serial per-experiment form: identical RunSets per group,
// with progress events labelled by experiment and a single monotonically
// increasing Done counter spanning all groups.
func TestRunGroupsMatchesSerialRuns(t *testing.T) {
	groupA := []scenario.Config{tinyConfig("A1", 3), tinyConfig("A2", 4)}
	groupB := []scenario.Config{tinyConfig("B1", 5)}

	serialA, err := Run(groupA, Options{Reps: 2, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	serialB, err := Run(groupB, Options{Reps: 2, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	events := map[string]int{}
	lastDone := 0
	pooled, err := RunGroups(context.Background(), []Group{
		{Name: "expA", Configs: groupA},
		{Name: "expB", Configs: groupB},
	}, Options{Reps: 2, Jobs: 4, Progress: func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		events[ev.Experiment]++
		if ev.Done != lastDone+1 || ev.Total != 6 {
			t.Errorf("event counter broken: done %d after %d, total %d", ev.Done, lastDone, ev.Total)
		}
		lastDone = ev.Done
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pooled) != 2 || len(pooled[0]) != 2 || len(pooled[1]) != 1 {
		t.Fatalf("pooled shape wrong: %d groups", len(pooled))
	}
	if events["expA"] != 4 || events["expB"] != 2 {
		t.Fatalf("events per experiment %v, want expA:4 expB:2", events)
	}
	for ci, rs := range pooled[0] {
		for rep := range rs.Reps {
			if !reflect.DeepEqual(rs.Reps[rep].Points, serialA[ci].Reps[rep].Points) {
				t.Fatalf("group A config %d rep %d diverged from serial run", ci, rep)
			}
		}
	}
	for rep := range pooled[1][0].Reps {
		if !reflect.DeepEqual(pooled[1][0].Reps[rep].Points, serialB[0].Reps[rep].Points) {
			t.Fatalf("group B rep %d diverged from serial run", rep)
		}
	}
}

// TestRunGroupsPartialResultsOnFailure pins the salvage contract: when a
// group's run fails, the error is reported AND every group whose runs all
// completed still carries its RunSets, so callers can persist finished
// experiments instead of discarding them. That holds whether the failing
// run is dispatched after the good group's (cheaper) or before them
// (dearer, with one worker, where a sweep-wide stop would skip them all).
func TestRunGroupsPartialResultsOnFailure(t *testing.T) {
	cheapBad := tinyConfig("bad", 9)
	cheapBad.Size = 1 // fails scenario validation at run time
	dearBad := tinyConfig("bad", 9)
	dearBad.K = 8
	dearBad.SnapshotInterval = -time.Minute // fails validation too
	for _, tc := range []struct {
		bad  scenario.Config
		jobs int
	}{{cheapBad, 2}, {dearBad, 1}} {
		out, err := RunGroups(context.Background(), []Group{
			{Name: "good", Configs: []scenario.Config{tinyConfig("G", 3), tinyConfig("H", 4)}},
			{Name: "broken", Configs: []scenario.Config{tc.bad}},
		}, Options{Reps: 1, Jobs: tc.jobs})
		if err == nil {
			t.Fatal("failing config must surface an error")
		}
		if len(out) != 2 {
			t.Fatalf("got %d groups, want 2", len(out))
		}
		if out[0] == nil || len(out[0]) != 2 {
			t.Fatalf("jobs %d: completed group lost with the error: %+v", tc.jobs, out[0])
		}
		for _, rs := range out[0] {
			if rs == nil || len(rs.Reps) != 1 || rs.Reps[0] == nil || len(rs.Reps[0].Points) == 0 {
				t.Fatalf("jobs %d: completed group's result is empty: %+v", tc.jobs, rs)
			}
		}
		if out[1] != nil {
			t.Fatalf("failed group must be nil, got %+v", out[1])
		}
	}
}
