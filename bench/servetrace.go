package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"kadre/internal/scenario"
	"kadre/internal/serve"
	"kadre/internal/sweep"
)

// replayRequests is how much of the stream the traced replay sends.
const replayRequests = 300

// pollEvery is the period of the GET /v1/arena poller.
const pollEvery = 50 * time.Millisecond

// serveTraced is the serve-specific part of the traced run: the head of
// the stream replayed against a fresh server with a span per request
// (request -> headers -> last byte) and a poller on GET /v1/arena, then
// in-process probes of the pieces a warm query passes through. The
// replay runs at the timed run's GOMAXPROCS, because the scheduler sizes
// itself from it; the probes run at 1 like the rest of the traced run.
func serveTraced(o options, sp *serveSpec, tr *tracer, first *recording, r *report) error {
	stream, err := sp.genStream(o.seed)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(procs)
	env := startServe(sp, stream)
	stop := make(chan struct{})
	polled := make(chan []float64)
	go func() { polled <- env.pollQueued(stop) }()
	answers := env.runStream(replayRequests, time.Time{}, tr)
	close(stop)
	queued := <-polled
	stats, err := arenaStats(env.client, env.ts.URL)
	env.close()
	runtime.GOMAXPROCS(1)
	if err != nil {
		return err
	}

	failed := checkAnswers(stream, answers)
	r.Attempted += len(answers)
	r.Failed += len(failed)
	for _, i := range sortedKeys(failed) {
		r.fail("replayed query %d: %s", i, failed[i])
	}
	// The serve workload's digest is the timed run's: the answers to the
	// head of the stream.
	r.ResultDigest = answersDigest(answers)

	r.setSamples("serve.http.ttfb_ms", tr.durationsMS("serve.http.headers"))
	r.setSamples("serve.stream_ms", tr.durationsMS("serve.http.stream"))
	if gets := stats.Hits + stats.Misses; gets > 0 {
		r.set("serve.arena.hit_ratio", float64(stats.Hits)/float64(gets))
	}
	r.set("serve.arena.builds", float64(stats.Builds))
	r.set("serve.arena.evictions", float64(stats.Evictions))
	if len(queued) > 0 {
		sum, top := 0.0, 0.0
		for _, q := range queued {
			sum += q
			top = max(top, q)
		}
		r.set("serve.sched.queued_mean", sum/float64(len(queued)))
		r.set("serve.sched.queued_max", top)
	}
	return serveProbes(o, sp, stream, first, r)
}

// arenaStats reads GET /v1/arena.
func arenaStats(client *http.Client, base string) (serve.ArenaStats, error) {
	var st serve.ArenaStats
	resp, err := client.Get(base + "/v1/arena")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("GET /v1/arena: %w", err)
	}
	return st, nil
}

// pollQueued samples the admission queue's queued-query count until stop
// closes. It polls on a connection of its own so that it never takes one
// from the closed-loop clients.
func (e *serveEnv) pollQueued(stop <-chan struct{}) []float64 {
	client := &http.Client{}
	defer client.CloseIdleConnections()
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	var queued []float64
	for {
		select {
		case <-stop:
			return queued
		case <-tick.C:
			if st, err := arenaStats(client, e.ts.URL); err == nil && st.Sched != nil {
				queued = append(queued, float64(st.Sched.Queued))
			}
		}
	}
}

// serveProbes times, by direct in-process calls, what a warm query pays
// between the socket and the arena: decoding and resolving its body, the
// arena lookup, an uncontended scheduler slot, RunAdaptive's own
// bookkeeping over a runner that does nothing, and one re-sampled
// analysis of a warm entry's final topology.
func serveProbes(o options, sp *serveSpec, stream []request, first *recording, r *report) error {
	rounds := 40
	if o.quick {
		rounds = 2
	}
	ctx := context.Background()

	var resolveUS []float64
	var query serve.Query
	for round := 0; round < rounds; round++ {
		for _, req := range stream[:min(len(stream), 50)] {
			t0 := time.Now()
			var qs serve.QuerySpec
			dec := json.NewDecoder(bytes.NewReader(req.Body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&qs); err != nil {
				return fmt.Errorf("resolve probe: %w", err)
			}
			q, err := qs.Resolve()
			if err != nil {
				return fmt.Errorf("resolve probe: %w", err)
			}
			resolveUS = append(resolveUS, since(t0)*1e6)
			query = q
		}
	}
	r.setSamples("serve.resolve_us", resolveUS)

	// An arena whose one build hands back the traced pass's first run.
	arena := serve.NewArena(serve.ArenaOptions{
		Runner: func(context.Context, scenario.Config) (*scenario.Result, *scenario.Bound, error) {
			return first.res, first.bound, nil
		},
	})
	cfg := first.res.Config
	entry, _, err := arena.Get(ctx, cfg)
	if err != nil {
		return fmt.Errorf("arena probe: %w", err)
	}
	const batch = 100 // calls per clock reading, for calls of ~100 ns
	var getUS, acquireNS []float64
	sched := serve.NewSched(procs)
	ticket := sched.Begin()
	for round := 0; round < rounds*5; round++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if _, _, err := arena.Get(ctx, cfg); err != nil {
				return fmt.Errorf("arena probe: %w", err)
			}
		}
		getUS = append(getUS, since(t0)*1e6/batch)
		t0 = time.Now()
		for i := 0; i < batch; i++ {
			if err := ticket.Acquire(ctx); err != nil {
				return fmt.Errorf("sched probe: %w", err)
			}
			ticket.Release()
		}
		acquireNS = append(acquireNS, since(t0)*1e9/batch)
	}
	ticket.Done(false)
	r.setSamples("serve.arena.get_warm_us", getUS)
	r.setSamples("serve.sched.acquire_ns", acquireNS)

	var adaptiveUS []float64
	for i := 0; i < rounds*10; i++ {
		t0 := time.Now()
		_, err := sweep.RunAdaptive(ctx, query.Config, sweep.AdaptiveOptions{
			Rule:    query.Rule,
			Extract: func(*scenario.Result) float64 { return 1 },
			MinReps: query.MinReps, MaxReps: query.MaxReps,
			Runner: func(context.Context, scenario.Config) (*scenario.Result, bool, error) {
				return first.res, true, nil
			},
		})
		if err != nil {
			return fmt.Errorf("adaptive probe: %w", err)
		}
		adaptiveUS = append(adaptiveUS, since(t0)*1e6)
	}
	r.setSamples("sweep.adaptive_overhead_us", adaptiveUS)

	if first.bound.Ready() {
		var finalMS []float64
		for i := 0; i < rounds; i++ {
			t0 := time.Now()
			// A fresh seed each time, or the entry answers from its memo.
			if _, err := entry.AnalyzeFinal(sp.ResampleFraction, int64(i+1)); err != nil {
				return fmt.Errorf("analyze-final probe: %w", err)
			}
			finalMS = append(finalMS, since(t0)*1e3)
		}
		r.setSamples("serve.entry.analyze_final_ms", finalMS)
	}
	return nil
}

// since returns the seconds elapsed since t0.
func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }
