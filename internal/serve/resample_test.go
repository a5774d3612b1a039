package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"kadre/internal/sweep"
)

// resampleQuery asks querySpec's scenario for its final Avg connectivity
// resampled at fraction 0.5 under seed, over exactly two replications
// (two arena entries), answering with the final record alone.
func resampleQuery(seed int) string {
	return fmt.Sprintf(`{
  "scenario": {
    "scale": "tiny", "size": 20, "k": 5, "staleness": 1,
    "churn": "1/1", "churn_minutes": 12,
    "setup_minutes": 6, "stabilize_minutes": 12, "snapshot_minutes": 6,
    "sample_fraction": 0.1, "seed": 5
  },
  "metric": "final_avg", "resample": {"fraction": 0.5, "seed": %d},
  "threshold": 1000, "min_reps": 2, "max_reps": 2, "stream": false
}`, seed)
}

// postBody posts a query and returns the response body; unlike postQuery
// it is safe off the test goroutine.
func postBody(ts *httptest.Server, body string) (string, error) {
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, data)
	}
	return string(data), nil
}

// resampleEntries returns the two warm entries resampleQuery replicates.
func resampleEntries(t *testing.T, a *Arena) []*Entry {
	t.Helper()
	q, err := resolveBody([]byte(resampleQuery(1)))
	if err != nil {
		t.Fatal(err)
	}
	var out []*Entry
	for rep := 0; rep < 2; rep++ {
		cfg := q.Config
		cfg.Seed = sweep.DeriveSeed(q.Config.Seed, rep)
		e, warm, err := a.Get(context.Background(), cfg)
		if err != nil || !warm {
			t.Fatalf("rep %d: warm=%v err=%v, want the query's warm entry", rep, warm, err)
		}
		out = append(out, e)
	}
	return out
}

// sweptPairs sums the pairs the entries' engines evaluated, by a flow or
// by the fan closure — a count that, unlike the split between the two,
// does not depend on the worker count.
func sweptPairs(entries []*Entry) int {
	total := 0
	for _, e := range entries {
		e.mu.Lock()
		total += e.bind.Engine.SweepFlows() + e.bind.Engine.SweepSettled()
		e.mu.Unlock()
	}
	return total
}

// TestConcurrentResamplesSolveEachRowOnce: clients racing resamples with
// distinct seeds onto the same warm entries pay, together, exactly what
// the same resamples cost one at a time — each source row and each Min
// sweep once per entry — and get the same answers; a repeat of the whole
// burst costs nothing. Run under -race it also checks that the entry
// lock covers the engine's memo.
func TestConcurrentResamplesSolveEachRowOnce(t *testing.T) {
	const clients, perClient = 4, 3
	burst := func(concurrent bool) (int, []string) {
		srv, ts := newTestServer(t)
		if _, err := postBody(ts, resampleQuery(0)); err != nil { // builds both entries
			t.Fatal(err)
		}
		entries := resampleEntries(t, srv.Arena())
		before := sweptPairs(entries)
		answers := make([]string, clients*perClient)
		post := func(i int) {
			body, err := postBody(ts, resampleQuery(i+1))
			if err != nil {
				t.Error(err)
			}
			answers[i] = body
		}
		if concurrent {
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for j := 0; j < perClient; j++ {
						post(c*perClient + j)
					}
				}(c)
			}
			wg.Wait()
		} else {
			for i := range answers {
				post(i)
			}
		}
		if t.Failed() {
			t.FailNow()
		}
		paid := sweptPairs(entries) - before
		for i, want := range answers {
			if again, err := postBody(ts, resampleQuery(i+1)); err != nil || again != want {
				t.Fatalf("repeat of resample %d: %v\n%s\nfirst:\n%s", i+1, err, again, want)
			}
		}
		if repaid := sweptPairs(entries) - before - paid; repaid != 0 {
			t.Fatalf("repeating the burst swept %d more pairs, want 0", repaid)
		}
		for _, e := range entries {
			parkedWithoutArcs(t, e, "after the resample bursts")
		}
		return paid, answers
	}
	racedPairs, raced := burst(true)
	serialPairs, serial := burst(false)
	if racedPairs == 0 || racedPairs != serialPairs {
		t.Fatalf("racing resamples swept %d pairs, one at a time %d", racedPairs, serialPairs)
	}
	for i := range serial {
		if raced[i] != serial[i] {
			t.Fatalf("resample %d answered %s racing and %s alone", i+1, raced[i], serial[i])
		}
	}
}
