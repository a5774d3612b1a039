// Benchmarks regenerating every table and figure of the paper's
// evaluation section, plus ablations of the design choices DESIGN.md calls
// out. Each BenchmarkFigureN/BenchmarkTableN runs the corresponding
// experiment at the tiny scale (so `go test -bench=.` finishes on a
// laptop; use cmd/kadsweep for reduced- or paper-scale runs) and reports
// the paper's headline quantities as custom benchmark metrics:
//
//	min_conn       minimum connectivity after stabilization (or churn mean)
//	avg_conn       average pair connectivity
//	kappa_over_k   min connectivity normalized by bucket size k
//
// The *shape* assertions — who wins, what rises, what collapses — live in
// the metrics, making regressions visible in benchstat diffs.
package kadre

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"kadre/internal/connectivity"
	"kadre/internal/eventsim"
	"kadre/internal/graph"
	"kadre/internal/id"
	"kadre/internal/kademlia"
	"kadre/internal/maxflow"
	"kadre/internal/scenario"
	"kadre/internal/simnet"
	"kadre/internal/snapshot"
	"kadre/internal/stats"
	"kadre/internal/sweep"
)

// benchScale is TinyScale with a seed pinned for stable metrics.
var benchScale = scenario.TinyScale

const benchSeed = 1

// runExperimentOnce resolves a catalogue experiment at benchScale, runs
// every config of it once and returns the results; the b.N loop re-runs
// the whole experiment.
func runExperimentOnce(b *testing.B, experimentID string) []*scenario.Result {
	b.Helper()
	exp, err := benchScale.ExperimentByID(experimentID, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	sets, err := sweep.Run(exp.Configs, sweep.Options{})
	if err != nil {
		b.Fatal(err)
	}
	results := make([]*scenario.Result, len(sets))
	for i, rs := range sets {
		results[i] = rs.Reps[0]
	}
	return results
}

// reportFigureMetrics emits per-k connectivity metrics for a 4-run
// k-sweep figure: the value at the end of stabilization and the churn-
// phase mean of the minimum connectivity.
func reportFigureMetrics(b *testing.B, results []*scenario.Result) {
	b.Helper()
	for _, r := range results {
		minSeries := r.MinSeries()
		stabilized, ok := minSeries.At(r.Config.ChurnStart())
		if !ok {
			continue
		}
		churnMean := r.ChurnWindowSummary().Mean
		k := float64(r.Config.K)
		b.ReportMetric(stabilized, fmt.Sprintf("min_conn_stab_k%d", r.Config.K))
		b.ReportMetric(stabilized/k, fmt.Sprintf("kappa_over_k_stab_k%d", r.Config.K))
		b.ReportMetric(churnMean, fmt.Sprintf("min_conn_churn_k%d", r.Config.K))
	}
}

func benchFigure(b *testing.B, experimentID string) {
	for i := 0; i < b.N; i++ {
		results := runExperimentOnce(b, experimentID)
		if i == b.N-1 {
			reportFigureMetrics(b, results)
		}
	}
}

// BenchmarkTable1MessageLoss regenerates Table 1: it validates the
// loss-scenario probabilities against a million simulated transmissions
// per level and reports the measured two-way failure rates.
func BenchmarkTable1MessageLoss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(benchSeed))
		for _, level := range simnet.Levels() {
			model := level.Model()
			const trials = 100000
			failures := 0
			for t := 0; t < trials; t++ {
				// Two-way exchange: request then response.
				if model.Drop(r, 1, 2) || model.Drop(r, 2, 1) {
					failures++
				}
			}
			got := float64(failures) / trials
			want := level.TwoWayLoss()
			if got < want-0.01 || got > want+0.01 {
				b.Fatalf("loss %v: measured two-way failure %.3f, want %.3f", level, got, want)
			}
			b.ReportMetric(got, "p2way_"+level.String())
		}
	}
}

// BenchmarkFigure2SimA: small network, churn 0/1, no data traffic.
func BenchmarkFigure2SimA(b *testing.B) { benchFigure(b, "figure2") }

// BenchmarkFigure3SimB: large network, churn 0/1, no data traffic.
func BenchmarkFigure3SimB(b *testing.B) { benchFigure(b, "figure3") }

// BenchmarkFigure4SimC: small network, churn 0/1, with data traffic.
func BenchmarkFigure4SimC(b *testing.B) { benchFigure(b, "figure4") }

// BenchmarkFigure5SimD: large network, churn 0/1, with data traffic.
func BenchmarkFigure5SimD(b *testing.B) { benchFigure(b, "figure5") }

// BenchmarkFigure6SimE: small network, churn 1/1, with data traffic.
func BenchmarkFigure6SimE(b *testing.B) { benchFigure(b, "figure6") }

// BenchmarkFigure7SimF: large network, churn 1/1, with data traffic.
func BenchmarkFigure7SimF(b *testing.B) { benchFigure(b, "figure7") }

// BenchmarkFigure8SimG: small network, churn 10/10, with data traffic.
func BenchmarkFigure8SimG(b *testing.B) { benchFigure(b, "figure8") }

// BenchmarkFigure9SimH: large network, churn 10/10, with data traffic.
func BenchmarkFigure9SimH(b *testing.B) { benchFigure(b, "figure9") }

// BenchmarkTable2RelativeVariance regenerates Table 2: churn-phase mean
// and relative variance of the minimum connectivity for Sims E-H, and
// asserts the paper's qualitative finding that stronger churn does not
// lower the RV (it rises or stays flat in almost every k row).
func BenchmarkTable2RelativeVariance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := runExperimentOnce(b, "table2")
		if i != b.N-1 {
			continue
		}
		type key struct {
			size int
			k    int
		}
		rv := map[key]map[string]float64{}
		for _, r := range results {
			sum := r.ChurnWindowSummary()
			kk := key{r.Config.Size, r.Config.K}
			if rv[kk] == nil {
				rv[kk] = map[string]float64{}
			}
			rv[kk][r.Config.Churn.String()] = sum.RV
			b.ReportMetric(sum.Mean, fmt.Sprintf("mean_n%d_k%d_c%s", r.Config.Size, r.Config.K, r.Config.Churn))
		}
		rose := 0
		total := 0
		for _, byChurn := range rv {
			lo, hi := byChurn["1/1"], byChurn["10/10"]
			if lo == 0 && hi == 0 {
				continue // the all-zero row the paper also excepts
			}
			total++
			if hi >= lo {
				rose++
			}
		}
		if total > 0 {
			b.ReportMetric(float64(rose)/float64(total), "rv_rose_fraction")
		}
	}
}

// BenchmarkFigure10Alpha regenerates Figure 10: mean minimum connectivity
// during churn vs k, for churn{1/1,10/10} x alpha{3,5}. Reported metric
// per curve point; also asserts the paper's finding 3 (alpha=5 with churn
// 10/10 hurts small k).
func BenchmarkFigure10Alpha(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := runExperimentOnce(b, "figure10")
		if i != b.N-1 {
			continue
		}
		for _, r := range results {
			alpha := r.Config.Alpha
			if alpha == 0 {
				alpha = 3
			}
			b.ReportMetric(r.ChurnWindowSummary().Mean,
				fmt.Sprintf("mean_n%d_c%s_a%d_k%d", r.Config.Size, r.Config.Churn, alpha, r.Config.K))
		}
	}
}

// BenchmarkSection57BitLength regenerates §5.7: identical scenarios with
// b=80 and b=160 should show no significant connectivity difference.
func BenchmarkSection57BitLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := runExperimentOnce(b, "bitlength")
		if i != b.N-1 {
			continue
		}
		for _, r := range results {
			mean := stats.Mean(r.MinSeries().Window(r.Config.ChurnStart(), r.Config.Total()).Values())
			b.ReportMetric(mean, fmt.Sprintf("mean_%s_b%d", sizeTag(r.Config.Size), r.Config.Bits))
		}
	}
}

func sizeTag(size int) string {
	if size >= benchScale.Large {
		return "large"
	}
	return "small"
}

// BenchmarkFigure11SimI regenerates Simulation I: staleness 1 vs 5
// without loss under churn; with strong churn, s=5 should not raise the
// average connectivity above s=1 (the paper sees it drop).
func BenchmarkFigure11SimI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := runExperimentOnce(b, "figure11")
		if i != b.N-1 {
			continue
		}
		for _, r := range results {
			avgMean := stats.Mean(r.AvgSeries().Window(r.Config.ChurnStart(), r.Config.Total()).Values())
			b.ReportMetric(avgMean, fmt.Sprintf("avg_conn_c%s_s%d", r.Config.Churn, r.Config.Staleness))
		}
	}
}

func benchLossSweep(b *testing.B, experimentID string) {
	for i := 0; i < b.N; i++ {
		results := runExperimentOnce(b, experimentID)
		if i != b.N-1 {
			continue
		}
		for _, r := range results {
			window := r.MinSeries().Window(r.Config.ChurnStart(), r.Config.Total())
			b.ReportMetric(stats.Mean(window.Values()),
				fmt.Sprintf("min_conn_s%d_l%s", r.Config.Staleness, r.Config.Loss))
		}
	}
}

// BenchmarkFigure12SimJ: loss sweep, no churn — loss raises connectivity.
func BenchmarkFigure12SimJ(b *testing.B) { benchLossSweep(b, "figure12") }

// BenchmarkFigure13SimK: loss sweep under churn 1/1.
func BenchmarkFigure13SimK(b *testing.B) { benchLossSweep(b, "figure13") }

// BenchmarkFigure14SimL: loss sweep under churn 10/10.
func BenchmarkFigure14SimL(b *testing.B) { benchLossSweep(b, "figure14") }

// --- Ablation benches (DESIGN.md §4) ---

// benchGraph builds a Kademlia-like near-symmetric random graph: every
// vertex has ~deg out-edges, most reciprocated.
func benchGraph(n, deg int, seed int64) *graph.Digraph {
	r := rand.New(rand.NewSource(seed))
	g := graph.NewDigraph(n)
	for u := 0; u < n; u++ {
		for d := 0; d < deg; d++ {
			v := r.Intn(n)
			if v == u {
				continue
			}
			if !g.HasEdge(u, v) {
				g.AddEdge(u, v)
			}
			if r.Float64() < 0.9 && !g.HasEdge(v, u) {
				g.AddEdge(v, u)
			}
		}
	}
	return g
}

// maxflowAlgoBench returns the benchmark body for one algorithm on an
// Even-transformed unit-capacity graph — the pipeline's exact workload.
// The body is a plain func so the bench-trajectory writer (see
// benchjson_test.go) can run it through testing.Benchmark.
func maxflowAlgoBench(algo maxflow.Algorithm) func(*testing.B) {
	return func(b *testing.B) {
		g := benchGraph(400, 20, 7)
		edges := graph.EvenEdges(g)
		medges := make([]maxflow.Edge, len(edges))
		for i, e := range edges {
			medges[i] = maxflow.Edge{U: e.U, V: e.V, Cap: 1}
		}
		queries := [][2]int{}
		r := rand.New(rand.NewSource(8))
		for len(queries) < 64 {
			v, w := r.Intn(g.N()), r.Intn(g.N())
			if v != w && !g.HasEdge(v, w) {
				queries = append(queries, [2]int{graph.Out(v), graph.In(w)})
			}
		}
		solver := algo.NewSolver(2*g.N(), medges)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			solver.MaxFlow(q[0], q[1])
		}
	}
}

// BenchmarkMaxflowAlgorithms compares Dinic against the fixed-root
// Hao–Orlin sweep solver on the pipeline's workload.
func BenchmarkMaxflowAlgorithms(b *testing.B) {
	for _, algo := range []maxflow.Algorithm{maxflow.Dinic, maxflow.HaoOrlin} {
		b.Run(algo.String(), maxflowAlgoBench(algo))
	}
}

// BenchmarkConnectivitySampling validates and times the paper's §5.2
// sampling heuristic: c=0.02 vs full sweep on a Kademlia-like graph. The
// sampled min must match the full min (the paper verified this on 20
// graphs; here it is asserted on every run).
func BenchmarkConnectivitySampling(b *testing.B) {
	g := benchGraph(250, 18, 9)
	eng := connectivity.MustNewEngine(connectivity.EngineOptions{})
	eng.Bind(g)
	want := eng.Analyze(connectivity.Query{SampleFraction: 1.0, MinOnly: true}).Min
	for _, c := range []float64{1.0, 0.1, 0.02} {
		b.Run(fmt.Sprintf("c=%.2f", c), func(b *testing.B) {
			var got int
			for i := 0; i < b.N; i++ {
				eng.Bind(g)
				got = eng.Analyze(connectivity.Query{SampleFraction: c, MinOnly: true}).Min
			}
			if got != want {
				b.Fatalf("sampled min %d != full min %d", got, want)
			}
			b.ReportMetric(float64(got), "kappa")
		})
	}
}

// BenchmarkHeuristicValidation reproduces the paper's §5.2 validation
// protocol: on randomly generated Kademlia-like connectivity graphs,
// check that c=0.02 smallest-out-degree sampling finds the exact minimum
// of the maximum flows. Reports the fraction of graphs where it matched.
func BenchmarkHeuristicValidation(b *testing.B) {
	matched, total := 0, 0
	eng := connectivity.MustNewEngine(connectivity.EngineOptions{})
	for i := 0; i < b.N; i++ {
		eng.Bind(benchGraph(150+i%3*50, 12+i%2*6, int64(100+i)))
		full := eng.Analyze(connectivity.Query{SampleFraction: 1.0, MinOnly: true}).Min
		sampled := eng.Analyze(connectivity.Query{SampleFraction: 0.02, MinOnly: true}).Min
		total++
		if full == sampled {
			matched++
		}
	}
	b.ReportMetric(float64(matched)/float64(total), "exact_fraction")
}

// BenchmarkEvenTransform times the graph transformation itself.
func BenchmarkEvenTransform(b *testing.B) {
	g := benchGraph(1000, 30, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.EvenTransform(g)
	}
}

// BenchmarkSnapshotAnalysis times one full snapshot analysis (capture
// excluded) at the small paper size, the unit of work the paper fanned
// out to its cluster. Iterations after the first reuse the engine's
// solver pool and Even-transform buffers — the steady state of the
// per-snapshot hot path.
func BenchmarkSnapshotAnalysis(b *testing.B) {
	g := benchGraph(250, 20, 12)
	eng := connectivity.MustNewEngine(connectivity.EngineOptions{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Bind(g)
		eng.Analyze(connectivity.Query{SampleFraction: 0.02, MinOnly: true})
	}
}

// BenchmarkSnapshotAnalysisFused times the runner's actual per-snapshot
// unit of work since the fused engine sweep: Min (pruned,
// smallest-out-degree) and Avg (exact, seeded uniform) in one pass over
// one solver pool. Compare against BenchmarkSnapshotAnalysis plus a
// separate exact sweep to see what fusing saves.
func BenchmarkSnapshotAnalysisFused(b *testing.B) {
	g := benchGraph(250, 20, 12)
	eng := connectivity.MustNewEngine(connectivity.EngineOptions{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Bind(g)
		eng.AnalyzeSnapshot(connectivity.SnapshotQuery{SampleFraction: 0.02, AvgSeed: int64(i)})
	}
}

// memberChurnSequence builds a cyclic sequence of stable-slot snapshot
// graphs under MEMBERSHIP churn: each step removes one node, joins one
// replacement (recycling the vacated slot, like snapshot.CaptureSlots),
// and churns ~changes routing-table edges. The slot count stays constant
// across the cycle, so every step is incrementally rebindable — the
// join/leave/strike workload that, before stable-slot indexing, forced a
// full bind per snapshot.
func memberChurnSequence(n, deg, steps, changes int, seed int64) (graphs []*graph.Digraph, orders [][]int) {
	r := rand.New(rand.NewSource(seed))
	var slots snapshot.SlotMap[int]
	nextID := n
	alive := make([]int, n)
	for i := range alive {
		alive[i] = i
	}
	edges := map[[2]int]bool{}
	addEdges := func(id, degree int) {
		for d := 0; d < degree; d++ {
			other := alive[r.Intn(len(alive))]
			if other == id {
				continue
			}
			edges[[2]int{id, other}] = true
			if r.Float64() < 0.9 {
				edges[[2]int{other, id}] = true
			}
		}
	}
	for _, id := range alive {
		addEdges(id, deg)
	}
	capture := func() (*graph.Digraph, []int) {
		return snapshot.BuildSlotGraph(&slots, alive, func(emit func(u, v int)) {
			for e := range edges {
				emit(e[0], e[1])
			}
		})
	}
	g0, o0 := capture()
	graphs, orders = append(graphs, g0), append(orders, o0)
	for i := 1; i < steps; i++ {
		// One leave + one join (slot recycled; count stays constant).
		gone := alive[r.Intn(len(alive))]
		alive = slices.DeleteFunc(alive, func(x int) bool { return x == gone })
		for e := range edges {
			if e[0] == gone || e[1] == gone {
				delete(edges, e)
			}
		}
		id := nextID
		nextID++
		alive = append(alive, id)
		addEdges(id, deg)
		// Plus routing-table churn on the survivors.
		keys := make([][2]int, 0, len(edges))
		for e := range edges {
			keys = append(keys, e)
		}
		slices.SortFunc(keys, func(a, b [2]int) int {
			if a[0] != b[0] {
				return a[0] - b[0]
			}
			return a[1] - b[1]
		})
		for c := 0; c < changes/2 && len(keys) > 0; c++ {
			k := r.Intn(len(keys))
			delete(edges, keys[k])
			keys[k] = keys[len(keys)-1]
			keys = keys[:len(keys)-1]
		}
		for c := 0; c < changes/2; c++ {
			u, v := alive[r.Intn(len(alive))], alive[r.Intn(len(alive))]
			if u != v {
				edges[[2]int{u, v}] = true
			}
		}
		g, o := capture()
		graphs, orders = append(graphs, g), append(orders, o)
	}
	return graphs, orders
}

// memberChurnSequenceBench returns the benchmark body for one binding
// mode over the membership-churn workload. "rebind" routes every
// snapshot through IncrementalBinder.BindNextSlots (the stable-slot
// incremental path); "bind" full-binds the slot capture per snapshot.
// ns/snapshot is per snapshot, not per cycle, for comparability with
// BenchmarkSnapshotAnalysisFused.
func memberChurnSequenceBench(rebind bool) func(*testing.B) {
	return func(b *testing.B) {
		graphs, orders := memberChurnSequence(250, 20, 8, 40, 13)
		for i := range graphs {
			if graphs[i].N() != graphs[0].N() {
				b.Fatalf("slot count drifted: %d != %d", graphs[i].N(), graphs[0].N())
			}
		}
		eng := connectivity.MustNewEngine(connectivity.EngineOptions{})
		binder := connectivity.NewIncrementalBinder(eng)
		binder.BindNextSlots(graphs[0], orders[0])
		cycle := func() {
			for j := range graphs {
				k := (j + 1) % len(graphs)
				if rebind {
					binder.BindNextSlots(graphs[k], orders[k])
				} else {
					eng.BindSlots(graphs[k], orders[k])
				}
				eng.AnalyzeSnapshot(connectivity.SnapshotQuery{SampleFraction: 0.02, AvgSeed: int64(j)})
			}
		}
		// One untimed cycle builds every solver and sizes every buffer, so
		// ns/snapshot and allocs/op do not depend on the iteration count the
		// framework picks (the trajectory is discontinuous at
		// BENCH_2026-10-03.json; see its comment field).
		cycle()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle()
		}
		b.ReportMetric(0, "ns/op") // reset default
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(graphs)), "ns/snapshot")
	}
}

// BenchmarkChurnSequence measures adjacent-snapshot reanalysis over a
// MEMBERSHIP-churn cycle (one leave + one join + ~40 routing-table edge
// updates per step, slots recycled), analyzed with the fused Min+Avg
// sweep: members-rebind-haoorlin is the stable-slot incremental path this
// repo ships, members-bind-haoorlin the full bind per snapshot it
// replaces — the tracked incremental-vs-full pair.
func BenchmarkChurnSequence(b *testing.B) {
	b.Run("members-rebind-haoorlin", memberChurnSequenceBench(true))
	b.Run("members-bind-haoorlin", memberChurnSequenceBench(false))
}

// BenchmarkSimulationMinute measures raw simulation throughput on a
// 100-node network with full data traffic. One op is one fixed run — ten
// setup minutes plus ten stabilised ones — so ns/op and allocs/op do not
// depend on the iteration count the framework picks (the trajectory is
// discontinuous at BENCH_2026-10-02.json; see its comment field).
func BenchmarkSimulationMinute(b *testing.B) {
	const setup, stabilize = 10 * time.Minute, 10 * time.Minute
	b.ReportAllocs()
	var sent uint64
	for i := 0; i < b.N; i++ {
		res, err := scenario.Run(scenario.Config{
			Name: "bench", Seed: 5, Size: 100, K: 20, Staleness: 1,
			Traffic: true,
			Setup:   setup, Stabilize: stabilize,
			SnapshotInterval: time.Hour * 24, SampleFraction: 0.05,
		})
		if err != nil {
			b.Fatal(err)
		}
		sent += res.Network.Sent
	}
	b.ReportMetric(float64(sent)/(float64(b.N)*(setup+stabilize).Minutes()), "msgs/min")
}

// The three benchmarks below time the simulator's layers one at a time
// through calls that every point of the trajectory can make, so that a
// BENCH pair from before and after a change to the hot path lines up.

// BenchmarkEventsimSchedulePop measures one handle-carrying schedule and
// one firing against a queue ten thousand events deep.
func BenchmarkEventsimSchedulePop(b *testing.B) {
	const depth = 10_000
	rng := rand.New(rand.NewSource(1))
	delays := make([]time.Duration, depth)
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(1000)) * time.Millisecond
	}
	sim := eventsim.New(1)
	nop := func() {}
	for _, d := range delays {
		sim.MustSchedule(d, nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.MustSchedule(delays[i%depth], nop)
		sim.Step()
	}
}

// BenchmarkRoutingTableClosest measures the k closest contacts to a random
// target out of a 160-bit, k = 20 table that has seen two thousand nodes.
func BenchmarkRoutingTableClosest(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rt := kademlia.NewRoutingTable(id.Random(160, rng), kademlia.Config{K: 20})
	for i := 0; i < 2000; i++ {
		rt.Observe(kademlia.Contact{ID: id.Random(160, rng), Addr: simnet.Addr(i + 1)})
	}
	targets := make([]id.ID, 256)
	for i := range targets {
		targets[i] = id.Random(160, rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := rt.Closest(targets[i%len(targets)], 20); len(got) != 20 {
			b.Fatalf("Closest returned %d contacts", len(got))
		}
	}
}

// settledNetwork builds an n-node, k = 20 network joining one node every
// five simulated seconds through a random earlier one (picked with rng),
// then lets it settle for ten minutes.
func settledNetwork(b *testing.B, n int, rng *rand.Rand) (*eventsim.Simulator, []*kademlia.Node) {
	b.Helper()
	sim := eventsim.New(1)
	net := simnet.New(sim, simnet.Config{
		Latency: simnet.UniformLatency{Min: 10 * time.Millisecond, Max: 100 * time.Millisecond},
	})
	var nodes []*kademlia.Node
	for i := 0; i < n; i++ {
		node, err := kademlia.NewNode(kademlia.Config{K: 20, StalenessLimit: 1}, simnet.Addr(i+1), net)
		if err != nil {
			b.Fatal(err)
		}
		if err := node.Start(); err != nil {
			b.Fatal(err)
		}
		if len(nodes) > 0 {
			if err := node.Join(nodes[rng.Intn(len(nodes))].Contact(), nil); err != nil {
				b.Fatal(err)
			}
		}
		nodes = append(nodes, node)
		sim.RunUntil(sim.Now() + 5*time.Second)
	}
	sim.RunUntil(sim.Now() + 10*time.Minute)
	return sim, nodes
}

// BenchmarkNodeLookup measures one iterative FIND_NODE lookup of a random
// target from a random node of a settled 100-node, k = 20 network, every
// message and timeout of it stepped through the kernel.
func BenchmarkNodeLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sim, nodes := settledNetwork(b, 100, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := false
		nodes[rng.Intn(len(nodes))].Lookup(id.Random(160, rng), func([]kademlia.Contact, int) { done = true })
		for !done && sim.Step() {
		}
		if !done {
			b.Fatal("lookup never completed")
		}
	}
}

// BenchmarkReconCaptureBind measures the fixed cost of one cutset strike's
// reconnaissance on a settled 150-node, k = 20 network: a dense
// snapshot.Capture of every routing table, a full Engine.Bind of it and
// the GraphCut the adversary removes, at the default sampling fraction.
func BenchmarkReconCaptureBind(b *testing.B) {
	sim, nodes := settledNetwork(b, 150, rand.New(rand.NewSource(1)))
	eng := connectivity.MustNewEngine(connectivity.EngineOptions{})
	q := connectivity.Query{SampleFraction: connectivity.DefaultSampleFraction}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := snapshot.Capture(sim.Now(), nodes)
		eng.Bind(s.Graph)
		if _, _, ok, err := eng.GraphCut(q); err != nil || !ok {
			b.Fatalf("GraphCut: ok %v, err %v", ok, err)
		}
	}
}
