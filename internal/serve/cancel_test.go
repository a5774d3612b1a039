package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kadre/internal/scenario"
)

// undecidableSpec never decides (unreachable threshold, fresh seed), so
// it replicates to max_reps — plenty of stream to cancel into. The
// scenario is sized so one rep takes a few hundred milliseconds: a
// client disconnect after the first rep record must land while the
// server is still mid-run, on fast machines too.
const undecidableSpec = `{
  "scenario": {
    "scale": "tiny", "size": 64, "k": 5, "staleness": 1,
    "churn": "2/2", "churn_minutes": 48,
    "setup_minutes": 6, "stabilize_minutes": 12, "snapshot_minutes": 6,
    "sample_fraction": 0.5, "seed": 11
  },
  "metric": "churn_min_mean",
  "threshold": 1000,
  "min_reps": 6, "max_reps": 8
}`

// waitSchedDrained polls until the admission queue shows no running
// query and no held slot — the "cancellation released its slot" check.
func waitSchedDrained(t *testing.T, s *Server) SchedStats {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Sched().Stats()
		if st.Running == 0 && st.Queued == 0 && st.InUse == 0 {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission queue never drained: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestQueryClientDisconnectReleasesSlotAndKeepsArenaWarm(t *testing.T) {
	srv := NewServer(Options{MaxConcurrentSims: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Stream the undecidable query and walk away after the first rep
	// record: the request context fires, the kernel stops mid-run, and
	// the partially-run rep is discarded.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/query", strings.NewReader(undecidableSpec))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first record: %v", sc.Err())
	}
	var first map[string]any
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatalf("first record %q: %v", sc.Text(), err)
	}
	if first["type"] != "rep" || first["rep"] != float64(0) {
		t.Fatalf("first record = %v", first)
	}
	cancel()
	resp.Body.Close()

	st := waitSchedDrained(t, srv)
	if st.Canceled != 1 {
		t.Fatalf("canceled counter = %d, want 1", st.Canceled)
	}

	// The completed rep parked its entry before the disconnect: an
	// identical query must answer its first rep from the warm arena.
	resp2, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(undecidableSpec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	sc2 := bufio.NewScanner(resp2.Body)
	if !sc2.Scan() {
		t.Fatalf("no record on warm follow-up: %v", sc2.Err())
	}
	var wfirst map[string]any
	if err := json.Unmarshal(sc2.Bytes(), &wfirst); err != nil {
		t.Fatal(err)
	}
	if wfirst["cached"] != true {
		t.Fatalf("follow-up rep 0 not served warm: %v", wfirst)
	}
	last := wfirst
	for sc2.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc2.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		last = m
	}
	if last["type"] != "result" {
		t.Fatalf("follow-up did not complete: %v", last)
	}
	if hits, _ := last["arena_hits"].(float64); hits < 1 {
		t.Fatalf("follow-up arena_hits = %v, want >= 1", last["arena_hits"])
	}
	if st := waitSchedDrained(t, srv); st.Canceled != 1 {
		t.Fatalf("completed follow-up flagged canceled: %+v", st)
	}
}

func TestQueryDeadline504(t *testing.T) {
	srv := NewServer(Options{MaxConcurrentSims: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// stream:false keeps the status line ours until the end, so the
	// 1 ms deadline — which fires mid-first-rep, long before a record —
	// must surface as a real 504, not an error record under a 200.
	spec := strings.Replace(undecidableSpec, `"min_reps": 6`, `"deadline_ms": 1, "stream": false, "min_reps": 6`, 1)
	resp, body := postQuery(t, ts, spec, "")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	recs := records(t, body)
	if recs[0]["type"] != "error" || !strings.Contains(recs[0]["error"].(string), "deadline") {
		t.Fatalf("error record = %v", recs[0])
	}
	if st := waitSchedDrained(t, srv); st.Canceled != 1 {
		t.Fatalf("deadline not counted canceled: %+v", st)
	}
}

func TestQueryDefaultDeadline(t *testing.T) {
	srv := NewServer(Options{MaxConcurrentSims: 2, DefaultDeadline: time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	spec := strings.Replace(undecidableSpec, `"min_reps": 6`, `"stream": false, "min_reps": 6`, 1)
	resp, body := postQuery(t, ts, spec, "")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 from the server default deadline: %s", resp.StatusCode, body)
	}
}

func TestQueryRunFailure500(t *testing.T) {
	// A genuine (non-cancellation) failure before any streamed record
	// answers 500 — previously an error record under an implicit 200 —
	// and one after it ends the stream with an error record. A panicking
	// run is one too: it releases its slot, parks nothing, and the server
	// answers the next query.
	panicRunner := func(context.Context, scenario.Config) (*scenario.Result, *scenario.Bound, error) {
		panic("engine exploded")
	}
	for _, tt := range []struct {
		name, want string
		failAt     int64 // the build that fails, counting from 1
		status     int
		fail       func(context.Context, scenario.Config) (*scenario.Result, *scenario.Bound, error)
	}{
		{"error", "engine exploded", 1, http.StatusInternalServerError, failRunner("engine exploded")},
		{"panic", "panicked: engine exploded", 1, http.StatusInternalServerError, panicRunner},
		{"panic mid-stream", "panicked: engine exploded", 2, http.StatusOK, panicRunner},
	} {
		var builds, calls atomic.Int64
		ok := stubRunner(&calls)
		a := NewArena(ArenaOptions{Runner: func(ctx context.Context, cfg scenario.Config) (*scenario.Result, *scenario.Bound, error) {
			if builds.Add(1) == tt.failAt {
				return tt.fail(ctx, cfg)
			}
			return ok(ctx, cfg)
		}})
		srv := NewServer(Options{Arena: a, MaxConcurrentSims: 1})
		ts := httptest.NewServer(srv.Handler())
		resp, body := postQuery(t, ts, undecidableSpec, "")
		recs := records(t, body)
		last := recs[len(recs)-1]
		if resp.StatusCode != tt.status || len(recs) != int(tt.failAt) ||
			last["type"] != "error" || !strings.Contains(last["error"].(string), tt.want) {
			t.Fatalf("%s: status %d, want %d, and %d records ending in an error: %s", tt.name, resp.StatusCode, tt.status, tt.failAt, body)
		}
		if st := waitSchedDrained(t, srv); st.Canceled != 0 {
			t.Fatalf("%s: genuine failure counted as canceled: %+v", tt.name, st)
		}
		if st := a.Stats(); st.Entries != int(tt.failAt-1) {
			t.Fatalf("%s: %d resident entries, want only the %d built before the failure", tt.name, st.Entries, tt.failAt-1)
		}
		resp, body = postQuery(t, ts, strings.Replace(undecidableSpec, `"seed": 11`, `"seed": 12`, 1), "")
		if recs := records(t, body); resp.StatusCode != http.StatusOK || recs[len(recs)-1]["type"] != "result" {
			t.Fatalf("%s: query after the failure: status %d: %s", tt.name, resp.StatusCode, body)
		}
		if st := srv.Sched().Stats(); st.InUse != 0 {
			t.Fatalf("%s: slots still held: %+v", tt.name, st)
		}
		ts.Close()
	}
}

// TestQueryConcurrencyLimitBounds pins the admission queue to its job:
// with -max-concurrent-sims 1, three queries posted at once execute their
// simulations strictly one at a time.
func TestQueryConcurrencyLimitBounds(t *testing.T) {
	var cur, max, calls atomic.Int64
	gauge := stubRunner(&calls)
	a := NewArena(ArenaOptions{Runner: func(ctx context.Context, cfg scenario.Config) (*scenario.Result, *scenario.Bound, error) {
		c := cur.Add(1)
		for {
			m := max.Load()
			if c <= m || max.CompareAndSwap(m, c) {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
		defer cur.Add(-1)
		return gauge(ctx, cfg)
	}})
	srv := NewServer(Options{Arena: a, MaxConcurrentSims: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const queries = 3
	errs := make(chan error, queries)
	for q := range queries {
		spec := fmt.Sprintf(`{
		  "scenario": {"scale": "tiny", "size": 20, "k": 5, "staleness": 1,
		    "setup_minutes": 6, "stabilize_minutes": 12, "snapshot_minutes": 6,
		    "sample_fraction": 0.1, "seed": %d},
		  "metric": "final_min", "threshold": 1000,
		  "min_reps": 4, "max_reps": 4
		}`, 21+q)
		go func() {
			resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(spec))
			if err == nil {
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
			errs <- err
		}()
	}
	for range queries {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 4*queries {
		t.Fatalf("stub built %d reps, want %d", calls.Load(), 4*queries)
	}
	if got := max.Load(); got > 1 {
		t.Fatalf("%d simulations ran concurrently under a limit of 1", got)
	}
	if st := srv.Sched().Stats(); st.MaxConcurrentSims != 1 {
		t.Fatalf("sched stats = %+v", st)
	}
}

// TestQueryDeterministicAcrossConcurrencyLimits: the admission queue
// delays work but never changes bytes — cold bodies, rep records
// included, are identical under a strangling limit, a wide one and an
// unlimited queue, which also run a query's reps 1, 8 and GOMAXPROCS
// wide.
func TestQueryDeterministicAcrossConcurrencyLimits(t *testing.T) {
	run := func(limit int) string {
		srv := NewServer(Options{MaxConcurrentSims: limit})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		_, body := postQuery(t, ts, querySpec, "")
		return body
	}
	b1 := run(1)
	for _, limit := range []int{8, -1} {
		if b := run(limit); b != b1 {
			t.Fatalf("cold bodies differ across concurrency limits 1 and %d:\n%s\n%s", limit, b1, b)
		}
	}
}

// TestArenaEndpointReportsSched: the /v1/arena payload carries the
// admission-queue breakdown.
func TestArenaEndpointReportsSched(t *testing.T) {
	srv := NewServer(Options{MaxConcurrentSims: 3})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/arena")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ArenaStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Sched == nil || st.Sched.MaxConcurrentSims != 3 {
		t.Fatalf("arena stats sched = %+v", st.Sched)
	}
}

// failRunner builds nothing, ever.
func failRunner(msg string) func(context.Context, scenario.Config) (*scenario.Result, *scenario.Bound, error) {
	return func(context.Context, scenario.Config) (*scenario.Result, *scenario.Bound, error) {
		return nil, nil, fmt.Errorf("%s", msg)
	}
}
