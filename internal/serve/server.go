package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sync"
	"time"

	"kadre/internal/scenario"
	"kadre/internal/sweep"
)

// Server is the HTTP face of the resilience-query service. Handlers are
// safe for concurrent use: simulation state lives in the shared arena,
// per-query state on the handler's stack, and every replication passes
// through the shared admission queue before it may simulate.
type Server struct {
	arena    *Arena
	sched    *Sched
	deadline time.Duration
	mux      *http.ServeMux
}

// Options configures NewServer.
type Options struct {
	// Arena is the shared engine pool; nil creates a default-budget one.
	Arena *Arena
	// MaxConcurrentSims bounds concurrently executing replications across
	// every query the server handles: 0 means GOMAXPROCS, negative means
	// unlimited. Admission is FIFO, so a limit delays queries under load
	// but never reorders or starves them — and never changes their bytes.
	// It also sets how many replications one query runs at once: the
	// limit, or GOMAXPROCS when unlimited.
	MaxConcurrentSims int
	// DefaultDeadline bounds the wall clock of queries that carry no
	// deadline_ms of their own; 0 means no default deadline.
	DefaultDeadline time.Duration
}

// NewServer builds the service and its routes.
func NewServer(opts Options) *Server {
	s := &Server{
		arena: opts.Arena, deadline: opts.DefaultDeadline,
	}
	if s.arena == nil {
		s.arena = NewArena(ArenaOptions{})
	}
	limit := opts.MaxConcurrentSims
	if limit == 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	if limit < 0 {
		limit = 0 // NewSched's unlimited mode
	}
	s.sched = NewSched(limit)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("GET /v1/arena", s.handleArena)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return s
}

// Arena returns the server's engine pool (tests and embedders read its
// stats).
func (s *Server) Arena() *Arena { return s.arena }

// Sched returns the server's admission queue (tests poll its stats to
// observe slot release after cancellation).
func (s *Server) Sched() *Sched { return s.sched }

// Handler returns the route multiplexer.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleArena(w http.ResponseWriter, _ *http.Request) {
	st := s.arena.Stats()
	ss := s.sched.Stats()
	st.Sched = &ss
	writeJSON(w, http.StatusOK, st)
}

// maxQueryBytes caps a POST /v1/query body. The largest committed query
// is under 250 bytes and the largest committed spec about 1 KiB, so an
// embedded spec with an inline trace a thousand times that still fits.
const maxQueryBytes = 1 << 20

// decodeQuery reads a query body strictly: an unknown field is an error,
// never a silently dropped knob.
func decodeQuery(r io.Reader) (QuerySpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec QuerySpec
	err := dec.Decode(&spec)
	return spec, err
}

// handleQuery runs one adaptively replicated resilience query, streaming
// a record per consumed replication and a final verdict record. All
// simulation and analysis state flows through the arena, so repeating a
// query against warm state answers from memory without a single bind.
//
// The query runs under the request context bounded by its deadline
// (spec's deadline_ms, else the server default): a client disconnect or
// an expired deadline propagates through the sweep and the scenario
// runner into the event kernel, which stops within one event batch.
// Failures before the first streamed record answer with a real status —
// 413 for a body over maxQueryBytes (refused before resolution, the
// scheduler or the arena see it), 504 for a deadline, 500 otherwise;
// after the stream started, the status is spoken for and the failure
// goes out as an error record.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeQuery(http.MaxBytesReader(w, r.Body, maxQueryBytes))
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorRecord{
			Type: "error", Error: fmt.Sprintf("query body exceeds %d bytes", tooLarge.Limit),
		})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorRecord{Type: "error", Error: "bad query spec: " + err.Error()})
		return
	}
	q, err := spec.Resolve()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorRecord{Type: "error", Error: err.Error()})
		return
	}

	ctx := r.Context()
	deadline := q.Deadline
	if deadline == 0 {
		deadline = s.deadline
	}
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}

	// One admission ticket per query; every replication acquires a slot
	// for the duration of its simulation (warm hits included — they are
	// cheap, so the slot turns over immediately). The explicit canceled
	// flag, not ctx.Err() at defer time, feeds the breakdown: a deadline
	// firing just after the final record must not count as a cancellation.
	tick := s.sched.Begin()
	canceled := false
	defer func() { tick.Done(canceled) }()

	// Per-query metric values, keyed by the shared Result pointer each
	// rep's arena entry returned: the runner computes the value (it holds
	// the entry, which resampled metrics need), Extract just looks it up.
	var values sync.Map
	runner := func(ctx context.Context, c scenario.Config) (*scenario.Result, bool, error) {
		if err := tick.Acquire(ctx); err != nil {
			return nil, false, err
		}
		defer tick.Release()
		e, warm, err := s.arena.Get(ctx, c)
		if err != nil {
			return nil, false, err
		}
		v, err := s.metricValue(q, e)
		if err != nil {
			return nil, false, err
		}
		values.Store(e.Result(), v)
		return e.Result(), warm, nil
	}

	out := newStreamWriter(w, r)
	hits, misses := 0, 0
	ar, err := sweep.RunAdaptive(ctx, q.Config, sweep.AdaptiveOptions{
		Rule: q.Rule,
		// Extract is handed the runner's Result; a miss reads NaN.
		Extract: func(res *scenario.Result) float64 {
			if v, ok := values.Load(res); ok {
				return v.(float64)
			}
			return math.NaN()
		},
		// A query never runs more reps at once than the server admits;
		// an unlimited queue (limit 0) leaves RunAdaptive's GOMAXPROCS.
		MinReps: q.MinReps, MaxReps: q.MaxReps, Jobs: int(s.sched.limit),
		Runner: runner,
		Progress: func(u sweep.Event) {
			// Warm/cold accounting covers exactly the consumed prefix, so
			// the final record is identical under any width (arena
			// counters also see discarded speculative reps).
			if u.Cached {
				hits++
			} else {
				misses++
			}
			if q.Stream {
				out.write("rep", repRecord{
					Type: "rep", Rep: u.Rep, Seed: u.Seed, Value: jsonFloat(u.Value),
					Reps: u.Reps, Mean: jsonFloat(u.Mean), CI95: jsonFloat(u.CI95),
					Decided: u.Decided, Verdict: string(u.Verdict), Cached: u.Cached,
				})
			}
		},
	})
	if err != nil {
		canceled = isCancellation(err)
		if out.Started() {
			out.write("error", errorRecord{Type: "error", Error: err.Error()})
			return
		}
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			writeJSON(w, http.StatusGatewayTimeout, errorRecord{Type: "error", Error: err.Error()})
		case errors.Is(err, context.Canceled):
			// The client is gone; nobody reads a status line.
		default:
			writeJSON(w, http.StatusInternalServerError, errorRecord{Type: "error", Error: err.Error()})
		}
		return
	}
	final := resultRecord{
		Type: "result", Name: q.Config.Name, Metric: q.Metric,
		Verdict: string(ar.Verdict), Reps: len(ar.Values),
		Values: make([]jsonFloat, len(ar.Values)),
		Mean:   jsonFloat(ar.Mean), CI95: jsonFloat(ar.CI95),
		Threshold: maybeThreshold(q.Rule), Precision: maybePrecision(q.Rule),
		ArenaHits: hits, ArenaMisses: misses,
	}
	for i, v := range ar.Values {
		final.Values[i] = jsonFloat(v)
	}
	out.write("result", final)
}

// metricValue computes a query's metric against one warm entry. Arena
// builds skip the Avg sweep (scenario.Config.MinOnly), so a plain
// final_avg reads NaN off an analyzed final point and is answered on
// demand, as the resample of the run's own fraction and seed.
func (s *Server) metricValue(q Query, e *Entry) (float64, error) {
	frac, seed := 0.0, int64(0) // the run's own
	if r := q.Resample; r != nil {
		frac, seed = r.Fraction, r.Seed
	} else if v, err := metricFromResult(q.Metric, e.Result()); err != nil || q.Metric != MetricFinalAvg || !math.IsNaN(v) {
		return v, err
	}
	sr, err := e.AnalyzeFinal(frac, seed)
	if err != nil {
		return 0, err
	}
	if q.Metric == MetricFinalMin {
		return float64(sr.Min.Min), nil
	}
	if sr.Avg.Pairs == 0 {
		// No evaluable sampled pair (or a complete graph): the runner's
		// own definitional fallback.
		return float64(e.FinalN() - 1), nil
	}
	return sr.Avg.Avg, nil
}

// maybeThreshold and maybePrecision render the stopping rule in the form
// the wire records serialize: the active bound as a pointer, nil for the
// other.
func maybeThreshold(r sweep.StopRule) *float64 {
	if t, ok := r.Threshold(); ok {
		return &t
	}
	return nil
}

func maybePrecision(r sweep.StopRule) *float64 {
	if p := r.Precision(); p > 0 {
		return &p
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// An encode failure here means the client went away; nothing to do.
	_ = json.NewEncoder(w).Encode(v)
}
