package serve

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kadre/internal/attack"
	"kadre/internal/connectivity"
	"kadre/internal/scenario"
)

// stubRunner fabricates a run without simulating: a one-point Result and
// a Bound around a fresh (unbound) engine. calls counts cold builds.
func stubRunner(calls *atomic.Int64) func(context.Context, scenario.Config) (*scenario.Result, *scenario.Bound, error) {
	return func(_ context.Context, cfg scenario.Config) (*scenario.Result, *scenario.Bound, error) {
		calls.Add(1)
		eng := connectivity.MustNewEngine(connectivity.EngineOptions{Workers: 1})
		res := &scenario.Result{Config: cfg.WithDefaults()}
		res.Points = append(res.Points, scenario.SnapshotStat{
			Time: time.Minute, N: cfg.Size, Min: 3, Avg: 4.5,
		})
		return res, &scenario.Bound{Engine: eng}, nil
	}
}

func arenaCfg(name string, seed int64) scenario.Config {
	return scenario.Config{
		Name: name, Seed: seed, Size: 20, K: 5, Staleness: 1,
		Setup: 6 * time.Minute, Stabilize: 12 * time.Minute,
		SnapshotInterval: 6 * time.Minute, SampleFraction: 0.1,
	}
}

func TestArenaWarmHit(t *testing.T) {
	var calls atomic.Int64
	a := NewArena(ArenaOptions{Runner: stubRunner(&calls)})
	e1, warm, err := a.Get(context.Background(), arenaCfg("a", 1))
	if err != nil || warm {
		t.Fatalf("cold Get: warm=%v err=%v", warm, err)
	}
	// Same effective config under a different name must hit: Name is not
	// part of the arena key.
	e2, warm, err := a.Get(context.Background(), arenaCfg("b", 1))
	if err != nil || !warm {
		t.Fatalf("warm Get: warm=%v err=%v", warm, err)
	}
	if e1 != e2 {
		t.Fatal("warm Get returned a different entry")
	}
	if calls.Load() != 1 || a.Builds() != 1 {
		t.Fatalf("runner calls=%d builds=%d, want 1/1", calls.Load(), a.Builds())
	}
	if _, warm, _ := a.Get(context.Background(), arenaCfg("a", 2)); warm {
		t.Fatal("different seed must miss")
	}
	st := a.Stats()
	if st.Entries != 2 || st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 2 entries, 1 hit, 2 misses", st)
	}
}

func TestArenaSingleflight(t *testing.T) {
	var calls atomic.Int64
	slow := func(ctx context.Context, cfg scenario.Config) (*scenario.Result, *scenario.Bound, error) {
		time.Sleep(20 * time.Millisecond) // widen the race window
		return stubRunner(&calls)(ctx, cfg)
	}
	a := NewArena(ArenaOptions{Runner: slow})
	const racers = 8
	entries := make([]*Entry, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, _, err := a.Get(context.Background(), arenaCfg("race", 7))
			if err != nil {
				t.Error(err)
			}
			entries[i] = e
		}(i)
	}
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("racing Gets paid %d builds, want 1", calls.Load())
	}
	for i := 1; i < racers; i++ {
		if entries[i] != entries[0] {
			t.Fatal("racing Gets received different entries")
		}
	}
}

func TestArenaLRUEviction(t *testing.T) {
	var calls atomic.Int64
	// Each stub entry estimates to ~32 KiB; budget two entries' worth.
	a := NewArena(ArenaOptions{BudgetBytes: 70 << 10, Runner: stubRunner(&calls)})
	for seed := int64(1); seed <= 3; seed++ {
		if _, _, err := a.Get(context.Background(), arenaCfg("e", seed)); err != nil {
			t.Fatal(err)
		}
	}
	st := a.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries after 1 eviction", st)
	}
	if st.UsedBytes > st.BudgetBytes {
		t.Fatalf("used %d exceeds budget %d after eviction", st.UsedBytes, st.BudgetBytes)
	}
	// Seed 1 was least recently used: it must have been the victim.
	if _, warm, _ := a.Get(context.Background(), arenaCfg("e", 2)); !warm {
		t.Fatal("seed 2 should have survived")
	}
	if _, warm, _ := a.Get(context.Background(), arenaCfg("e", 1)); warm {
		t.Fatal("seed 1 should have been evicted")
	}
}

func TestArenaNeverEvictsJustInserted(t *testing.T) {
	var calls atomic.Int64
	// Budget below a single entry's estimate: the entry stays resident
	// anyway (an arena with nothing warm serves no one).
	a := NewArena(ArenaOptions{BudgetBytes: 1024, Runner: stubRunner(&calls)})
	if _, _, err := a.Get(context.Background(), arenaCfg("big", 1)); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want the over-budget entry resident", st.Entries)
	}
	if _, warm, _ := a.Get(context.Background(), arenaCfg("big", 1)); !warm {
		t.Fatal("over-budget entry must still serve warm hits")
	}
	// A second entry displaces the first: exactly one stays.
	if _, _, err := a.Get(context.Background(), arenaCfg("big", 2)); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 1 entry after displacing eviction", a.Stats())
	}
}

func TestArenaBuildErrorNotCached(t *testing.T) {
	var calls atomic.Int64
	fail := true
	runner := func(ctx context.Context, cfg scenario.Config) (*scenario.Result, *scenario.Bound, error) {
		if fail {
			calls.Add(1)
			return nil, nil, fmt.Errorf("boom")
		}
		return stubRunner(&calls)(ctx, cfg)
	}
	a := NewArena(ArenaOptions{Runner: runner})
	if _, _, err := a.Get(context.Background(), arenaCfg("f", 1)); err == nil {
		t.Fatal("build error must propagate")
	}
	fail = false
	if _, warm, err := a.Get(context.Background(), arenaCfg("f", 1)); err != nil || warm {
		t.Fatalf("retry after failure: warm=%v err=%v, want cold success", warm, err)
	}
	if a.Builds() != 1 {
		t.Fatalf("builds = %d, want 1 (failures don't count)", a.Builds())
	}
}

// TestArenaRealRunBound drives the real scenario.RunBoundCtx through the
// arena. A cold build analyzes Min alone: its engine sweeps no exact pair.
// The final point's Avg comes on demand: the first AnalyzeFinal(0, 0)
// sweeps exactly the run's own uniform rows and reproduces, bit for bit,
// what a batch run of the same config measures; a second one sweeps
// nothing, and a resample under a fresh seed pays its own rows.
func TestArenaRealRunBound(t *testing.T) {
	churned := arenaCfg("churn", 9)
	churned.Churn.Add, churned.Churn.Remove = 1, 1
	churned.ChurnPhase = 12 * time.Minute
	cutset := arenaCfg("cutset", 4)
	cutset.ChurnPhase = 12 * time.Minute
	cutset.Attack = attack.Config{Strategy: attack.Cutset, Budget: 4, Kills: 2, Interval: 4 * time.Minute}
	// Eight nodes under churn, whose final uniform source is adjacent to
	// every other node: the sample holds no pair, so Avg is the n-1
	// fallback although the graph is not complete.
	fallback := churned
	fallback.Name, fallback.Seed, fallback.Size = "fallback", 10, 8
	for _, cfg := range []scenario.Config{churned, cutset, fallback} {
		t.Run(cfg.Name, func(t *testing.T) {
			batch, err := scenario.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := batch.Points[len(batch.Points)-1]
			e, warm, err := NewArena(ArenaOptions{}).Get(context.Background(), cfg)
			if err != nil || warm {
				t.Fatalf("cold Get: warm=%v err=%v", warm, err)
			}
			if cfg.Attack.Enabled() && e.Result().AttackRemoved == 0 {
				t.Fatal("the adversary struck no node")
			}
			eng := e.bind.Engine
			if exact := eng.SweepExact(); exact != 0 {
				t.Fatalf("the cold build swept %d exact pairs, want 0", exact)
			}
			if last := e.Result().Points[len(e.Result().Points)-1]; !math.IsNaN(last.Avg) || last.Min != want.Min {
				t.Fatalf("built final point min %d avg %v, want min %d and no Avg", last.Min, last.Avg, want.Min)
			}

			before := sweptPairs([]*Entry{e})
			sr, err := e.AnalyzeFinal(0, 0) // the run's own sampling and seed
			if err != nil {
				t.Fatal(err)
			}
			if swept, exact := sweptPairs([]*Entry{e})-before, eng.SweepExact(); swept != sr.Avg.Pairs || exact != sr.Avg.Pairs {
				t.Fatalf("the final Avg swept %d pairs (%d exact), want exactly its %d row pairs", swept, exact, sr.Avg.Pairs)
			}
			if cfg.Name == "fallback" && (sr.Avg.Pairs != 0 || e.FinalN()*(e.FinalN()-1) == e.bind.Final.Graph.M()) {
				t.Fatalf("final sample holds %d pairs on a %d-node, %d-edge graph, want none on a non-complete one",
					sr.Avg.Pairs, e.FinalN(), e.bind.Final.Graph.M())
			}
			avg := sr.Avg.Avg
			if sr.Avg.Pairs == 0 {
				avg = float64(e.FinalN() - 1)
			}
			if sr.Min.Min != want.Min || math.Float64bits(avg) != math.Float64bits(want.Avg) {
				t.Fatalf("on demand min %d avg %v, batch run's final point min %d avg %v", sr.Min.Min, avg, want.Min, want.Avg)
			}

			before = sweptPairs([]*Entry{e})
			again, err := e.AnalyzeFinal(0, 0)
			if err != nil || again.Min.Min != sr.Min.Min || again.Avg.Pairs != sr.Avg.Pairs ||
				math.Float64bits(again.Avg.Avg) != math.Float64bits(sr.Avg.Avg) {
				t.Fatalf("repeat: %+v %v, want %+v", again, err, sr)
			}
			if swept := sweptPairs([]*Entry{e}) - before; swept != 0 {
				t.Fatalf("a repeated final Avg swept %d pairs, want 0", swept)
			}
			// A resample under a fresh seed rebuilds the solvers for its
			// sweep and parks the entry without them again.
			if _, err := e.AnalyzeFinal(0.5, 77); err != nil {
				t.Fatal(err)
			}
			if sweptPairs([]*Entry{e}) == before {
				t.Fatal("a fresh-seed resample swept no pair")
			}
		})
	}
}

// TestEstimateSizeBoundsRetainedHeap holds estimateSize to what a parked
// entry costs: the six serve-mixed shapes (tiny scale, 60 nodes, k 5, 10
// and 20 under churn 1/1 and 10/10), built under a few seeds and
// resampled once each at fraction 0.5 the way the workload's final_avg
// queries do, must retain between 0.8x and 2x of their summed estimates
// once the collector has run.
func TestEstimateSizeBoundsRetainedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 18 simulations")
	}
	var cfgs []scenario.Config
	for _, seed := range []int64{11, 12, 13} {
		for _, churn := range []string{"1/1", "10/10"} {
			for _, k := range []int{5, 10, 20} {
				threshold := 1.0
				q, err := QuerySpec{
					Scenario: ScenarioSpec{
						Scale: "tiny", Size: 60, K: k, Churn: churn, ChurnMinutes: 40, Seed: seed,
					},
					Threshold: &threshold,
				}.Resolve()
				if err != nil {
					t.Fatal(err)
				}
				cfgs = append(cfgs, q.Config)
			}
		}
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the second cycle also empties sync.Pool victim caches
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	a := NewArena(ArenaOptions{})
	before := heap()
	for i, cfg := range cfgs {
		e, _, err := a.Get(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.AnalyzeFinal(0.5, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	retained := float64(heap()) - float64(before)
	st := a.Stats()
	if st.Entries != len(cfgs) {
		t.Fatalf("%d entries resident, want %d", st.Entries, len(cfgs))
	}
	ratio := float64(st.UsedBytes) / retained
	t.Logf("%d entries: estimated %.1f KB, retained %.1f KB per entry (ratio %.2f)",
		st.Entries, float64(st.UsedBytes)/1e3/float64(st.Entries), retained/1e3/float64(st.Entries), ratio)
	if ratio < 0.8 || ratio > 2 {
		t.Fatalf("estimated %d bytes for %.0f retained: ratio %.2f outside [0.8, 2]", st.UsedBytes, retained, ratio)
	}
	runtime.KeepAlive(a)
}
