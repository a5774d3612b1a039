package maxflow

import (
	"math/rand"
	"testing"
)

// Tests for the reuse surfaces: in-place Reset across graphs, Dinic's
// cached-source level graph, and HaoOrlin's cached root labels. Every
// reuse path must be value-identical to a freshly constructed solver.

// randomCapGraph returns a random graph with mixed capacities 1..4.
func randomCapGraph(r *rand.Rand, n, m int) []Edge {
	var edges []Edge
	for i := 0; i < m; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			edges = append(edges, Edge{U: u, V: v, Cap: int32(1 + r.Intn(4))})
		}
	}
	return edges
}

// TestResetRebindsInPlace reuses one solver across a sequence of graphs
// of growing and shrinking size and compares every query against a
// fresh solver — Reset must behave exactly like construction.
func TestResetRebindsInPlace(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for name, factory := range solvers() {
		reused := factory(2, []Edge{{U: 0, V: 1, Cap: 1}})
		for trial := 0; trial < 8; trial++ {
			n := 4 + r.Intn(30) // grows and shrinks across trials
			edges := randomCapGraph(r, n, 3*n)
			reused.Reset(n, EdgeSlice(edges))
			fresh := factory(n, edges)
			for q := 0; q < 12; q++ {
				s, tt := r.Intn(n), r.Intn(n)
				if s == tt {
					continue
				}
				var got, want int
				if q%3 == 0 {
					limit := r.Intn(4)
					got = reused.MaxFlowLimit(s, tt, limit)
					want = fresh.MaxFlowLimit(s, tt, limit)
					if got < want || (want < limit && got != want) {
						t.Fatalf("%s trial %d: reset solver limit flow %d, fresh %d (limit %d)",
							name, trial, got, want, limit)
					}
					continue
				}
				got = reused.MaxFlow(s, tt)
				want = fresh.MaxFlow(s, tt)
				if got != want {
					t.Fatalf("%s trial %d: reset solver flow(%d,%d) = %d, fresh %d",
						name, trial, s, tt, got, want)
				}
			}
		}
	}
}

// TestPrepareSourceMatchesCold pins the per-source reuse paths (Dinic's
// cached first-phase BFS, HaoOrlin's cached root labels): a sweep
// over every target after PrepareSource must return the same values as
// fresh per-query solves, for exact and capped queries alike.
func TestPrepareSourceMatchesCold(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for name, factory := range solvers() {
		for trial := 0; trial < 6; trial++ {
			n := 10 + r.Intn(25)
			edges := randomUnitGraph(r, n, 4*n)
			sweep := factory(n, edges)
			for src := 0; src < 3 && src < n; src++ {
				sweep.PrepareSource(src)
				for tgt := 0; tgt < n; tgt++ {
					if tgt == src {
						continue
					}
					want := factory(n, edges).MaxFlow(src, tgt)
					got := sweep.MaxFlow(src, tgt)
					if got != want {
						t.Fatalf("%s trial %d: prepared flow(%d,%d) = %d, cold %d",
							name, trial, src, tgt, got, want)
					}
					limit := 1 + r.Intn(3)
					capped := sweep.MaxFlowLimit(src, tgt, limit)
					if want < limit {
						if capped != want {
							t.Fatalf("%s trial %d: prepared capped flow(%d,%d,%d) = %d, want exact %d",
								name, trial, src, tgt, limit, capped, want)
						}
					} else if capped < limit {
						t.Fatalf("%s trial %d: prepared capped flow(%d,%d,%d) = %d below limit (true %d)",
							name, trial, src, tgt, limit, capped, want)
					}
				}
			}
		}
	}
}

// TestWarmStartSourceSwitch pins the per-source cache bookkeeping across
// source changes: interleaving sources must not leak cached levels,
// labels or residual state between them.
func TestWarmStartSourceSwitch(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	n := 18
	edges := randomUnitGraph(r, n, 5*n)
	for name, factory := range solvers() {
		sweep := factory(n, edges)
		for q := 0; q < 60; q++ {
			s, tt := r.Intn(n), r.Intn(n)
			if s == tt {
				continue
			}
			want := factory(n, edges).MaxFlow(s, tt)
			if got := sweep.MaxFlow(s, tt); got != want {
				t.Fatalf("%s query %d: interleaved flow(%d,%d) = %d, fresh %d",
					name, q, s, tt, got, want)
			}
		}
	}
}

// TestPrepareSourceInvalidatedByReset ensures a rebind drops cached
// source state.
func TestPrepareSourceInvalidatedByReset(t *testing.T) {
	edges1 := []Edge{{U: 0, V: 1, Cap: 1}, {U: 1, V: 2, Cap: 1}}
	edges2 := []Edge{{U: 0, V: 1, Cap: 1}, {U: 1, V: 2, Cap: 1}, {U: 0, V: 2, Cap: 1}}
	for name, factory := range solvers() {
		s := factory(3, edges1)
		s.PrepareSource(0)
		if got := s.MaxFlow(0, 2); got != 1 {
			t.Fatalf("%s: flow before reset = %d, want 1", name, got)
		}
		s.Reset(3, EdgeSlice(edges2))
		if got := s.MaxFlow(0, 2); got != 2 {
			t.Fatalf("%s: flow after reset = %d, want 2 (stale source cache?)", name, got)
		}
	}
}
