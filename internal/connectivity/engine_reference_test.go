package connectivity

import (
	"math"
	"math/rand"
	"sort"
	"sync"

	"kadre/internal/graph"
	"kadre/internal/maxflow"
)

// This file carries the pre-engine analysis implementation verbatim as a
// differential-testing oracle: an independent, worker-pooled sweep with
// its own source selection, MinOnly pruning and lexMinPair second pass.
// The engine must reproduce its results — Min, Avg, Pairs, Sources and
// MinPair — bit for bit: Analyze for the smallest-out-degree sources,
// AnalyzeSnapshot's Avg for the uniform ones (see engine_test.go).

// referenceOptions is what the historical analysis was configured with:
// the per-call Query, the source selection and MinPair switch the engine
// no longer exposes, and the solver and worker pool of the sweep.
type referenceOptions struct {
	Query
	// Uniform draws the sources uniformly, seeded with Seed, instead of
	// taking the c*n with smallest out-degree.
	Uniform bool
	Seed    int64
	// SkipMinPair reports MinPair as {-1, -1}, as AnalyzeSnapshot's Min
	// does.
	SkipMinPair bool
	Algorithm   maxflow.Algorithm
	Workers     int
}

// referenceAnalyze is the historical construct-and-analyze entry point.
func referenceAnalyze(opts referenceOptions, g *graph.Digraph) Result {
	if opts.Algorithm == 0 {
		opts.Algorithm = maxflow.Dinic
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	n := g.N()
	if n <= 1 {
		return Result{N: n, Complete: true, MinPair: [2]int{-1, -1}}
	}
	if g.IsComplete() {
		return Result{N: n, Min: n - 1, Avg: float64(n - 1), Complete: true, MinPair: [2]int{-1, -1}}
	}

	sources := referencePickSources(opts, g)
	edges := referenceEvenUnitEdges(g)

	type sourceResult struct {
		min     int
		minPair [2]int
		sum     int64
		pairs   int
	}

	var (
		mu         sync.Mutex
		running    = n
		results    = make([]sourceResult, len(sources))
		nextSource int
	)

	workers := opts.Workers
	if workers > len(sources) {
		workers = len(sources)
	}
	if workers < 1 {
		workers = 1
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			solver := opts.Algorithm.NewSolver(2*n, edges)
			for {
				mu.Lock()
				idx := nextSource
				if idx >= len(sources) {
					mu.Unlock()
					return
				}
				nextSource++
				limit := running
				mu.Unlock()

				src := sources[idx]
				res := sourceResult{min: n, minPair: [2]int{-1, -1}}
				for tgt := 0; tgt < n; tgt++ {
					if tgt == src || g.HasEdge(src, tgt) {
						continue
					}
					var flow int
					if opts.MinOnly {
						flow = solver.MaxFlowLimit(graph.Out(src), graph.In(tgt), limit)
					} else {
						flow = solver.MaxFlow(graph.Out(src), graph.In(tgt))
					}
					res.pairs++
					res.sum += int64(flow)
					if flow < res.min {
						res.min = flow
						res.minPair = [2]int{src, tgt}
						if flow < limit {
							limit = flow
							mu.Lock()
							if flow < running {
								running = flow
							} else {
								limit = running
							}
							mu.Unlock()
						}
					}
				}
				mu.Lock()
				results[idx] = res
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	out := Result{N: n, Min: n, MinPair: [2]int{-1, -1}, Sources: len(sources)}
	var sum int64
	for _, r := range results {
		out.Pairs += r.pairs
		sum += r.sum
		if r.pairs == 0 {
			continue
		}
		if r.min < out.Min || (r.min == out.Min && lexLess(r.minPair, out.MinPair)) {
			out.Min = r.min
			out.MinPair = r.minPair
		}
	}
	if out.Pairs == 0 {
		return Result{N: n, Min: n - 1, Avg: math.NaN(), MinPair: [2]int{-1, -1}, Sources: len(sources)}
	}
	if opts.MinOnly {
		out.Avg = math.NaN()
		if opts.SkipMinPair {
			out.MinPair = [2]int{-1, -1}
		} else {
			out.MinPair = referenceLexMinPair(opts, g, sources, edges, out.Min)
		}
	} else {
		out.Avg = float64(sum) / float64(out.Pairs)
		if opts.SkipMinPair {
			out.MinPair = [2]int{-1, -1}
		}
	}
	return out
}

// referenceLexMinPair is the historical bounded second sweep that
// re-selected MinPair deterministically after a MinOnly analysis.
func referenceLexMinPair(opts referenceOptions, g *graph.Digraph, sources []int, edges []maxflow.Edge, min int) [2]int {
	n := g.N()
	sorted := append([]int(nil), sources...)
	sort.Ints(sorted)

	hits := make([]int, len(sorted))
	var (
		mu       sync.Mutex
		next     int
		firstHit = len(sorted)
		wg       sync.WaitGroup
	)
	workers := opts.Workers
	if workers > len(sorted) {
		workers = len(sorted)
	}
	if workers < 1 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			solver := opts.Algorithm.NewSolver(2*n, edges)
			for {
				mu.Lock()
				idx := next
				if idx >= len(sorted) || idx > firstHit {
					mu.Unlock()
					return
				}
				next++
				mu.Unlock()

				src := sorted[idx]
				hits[idx] = -1
				for tgt := 0; tgt < n; tgt++ {
					if tgt == src || g.HasEdge(src, tgt) {
						continue
					}
					mu.Lock()
					obsolete := firstHit < idx
					mu.Unlock()
					if obsolete {
						break
					}
					if solver.MaxFlowLimit(graph.Out(src), graph.In(tgt), min+1) == min {
						hits[idx] = tgt
						mu.Lock()
						if idx < firstHit {
							firstHit = idx
						}
						mu.Unlock()
						break
					}
				}
			}
		}()
	}
	wg.Wait()

	if firstHit < len(sorted) {
		return [2]int{sorted[firstHit], hits[firstHit]}
	}
	return [2]int{-1, -1}
}

// referencePickSources is the historical source selection.
func referencePickSources(opts referenceOptions, g *graph.Digraph) []int {
	n := g.N()
	c := opts.SampleFraction
	if c <= 0 || c >= 1 {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	count := int(math.Ceil(c * float64(n)))
	if count < 1 {
		count = 1
	}
	if count > n {
		count = n
	}
	if opts.Uniform {
		r := rand.New(rand.NewSource(opts.Seed))
		return r.Perm(n)[:count]
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		di, dj := g.OutDegree(order[i]), g.OutDegree(order[j])
		if di != dj {
			return di < dj
		}
		return order[i] < order[j]
	})
	return order[:count]
}

func referenceEvenUnitEdges(g *graph.Digraph) []maxflow.Edge {
	ge := graph.EvenEdges(g)
	edges := make([]maxflow.Edge, len(ge))
	for i, e := range ge {
		edges[i] = maxflow.Edge{U: e.U, V: e.V, Cap: 1}
	}
	return edges
}
