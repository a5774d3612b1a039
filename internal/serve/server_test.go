package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"kadre/internal/sweep"
)

// querySpec is the fast query every server test reuses: a 30-simulated-
// minute tiny run with churn, decided as a quick fail by an unreachable
// threshold after exactly min_reps replications.
const querySpec = `{
  "scenario": {
    "scale": "tiny", "size": 20, "k": 5, "staleness": 1,
    "churn": "1/1", "churn_minutes": 12,
    "setup_minutes": 6, "stabilize_minutes": 12, "snapshot_minutes": 6,
    "sample_fraction": 0.1, "seed": 5
  },
  "metric": "churn_min_mean",
  "threshold": 1000,
  "min_reps": 2, "max_reps": 3
}`

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(Options{MaxConcurrentSims: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postQuery(t *testing.T, ts *httptest.Server, body string, accept string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/query", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(data)
}

// records splits an NDJSON body into parsed lines.
func records(t *testing.T, body string) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

func TestQueryStreamsAndWarmRepeatsBindNothing(t *testing.T) {
	srv, ts := newTestServer(t)

	resp, body := postQuery(t, ts, querySpec, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	recs := records(t, body)
	if len(recs) != 3 { // two rep records + the result
		t.Fatalf("got %d records, want 3:\n%s", len(recs), body)
	}
	for _, r := range recs[:2] {
		if r["type"] != "rep" || r["cached"] != false {
			t.Fatalf("cold rep record = %v", r)
		}
	}
	final := recs[2]
	if final["type"] != "result" || final["verdict"] != "fail" {
		t.Fatalf("final record = %v", final)
	}
	if final["arena_hits"] != float64(0) || final["arena_misses"] != float64(2) {
		t.Fatalf("cold accounting = %v hits / %v misses", final["arena_hits"], final["arena_misses"])
	}
	// The first rep's CI half-width does not exist yet: null, not NaN.
	if v, present := recs[0]["ci95"]; !present || v != nil {
		t.Fatalf("rep-0 ci95 = %v, want null", v)
	}

	builds := srv.Arena().Builds()
	if builds != 2 {
		t.Fatalf("cold query paid %d builds, want 2", builds)
	}

	// The acceptance criterion: an identical query against the warm arena
	// performs zero builds (and therefore zero engine binds) — every rep
	// answers from residency.
	_, warm1 := postQuery(t, ts, querySpec, "")
	if got := srv.Arena().Builds(); got != builds {
		t.Fatalf("warm repeat paid %d new builds", got-builds)
	}
	wrecs := records(t, warm1)
	for _, r := range wrecs[:2] {
		if r["cached"] != true {
			t.Fatalf("warm rep record not cached: %v", r)
		}
	}
	wfinal := wrecs[2]
	if wfinal["arena_hits"] != float64(2) || wfinal["arena_misses"] != float64(0) {
		t.Fatalf("warm accounting = %v hits / %v misses", wfinal["arena_hits"], wfinal["arena_misses"])
	}
	// The decision itself is temperature-independent.
	for _, k := range []string{"verdict", "reps", "mean", "ci95", "name", "metric"} {
		if want, got := final[k], wfinal[k]; !equalJSON(want, got) {
			t.Fatalf("%s changed across warmth: %v -> %v", k, want, got)
		}
	}

	// Warm repeats are byte-identical to each other.
	_, warm2 := postQuery(t, ts, querySpec, "")
	if warm1 != warm2 {
		t.Fatalf("warm repeats differ:\n%s\n%s", warm1, warm2)
	}
}

func equalJSON(a, b any) bool {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return string(ja) == string(jb)
}

func TestQuerySSE(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postQuery(t, ts, querySpec, "text/event-stream")
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(body, "event: rep\ndata: {") {
		t.Fatalf("missing rep events:\n%s", body)
	}
	if !strings.Contains(body, "event: result\ndata: {\"type\":\"result\"") {
		t.Fatalf("missing result event:\n%s", body)
	}
}

func TestQueryNoStream(t *testing.T) {
	_, ts := newTestServer(t)
	spec := strings.Replace(querySpec, `"min_reps": 2`, `"stream": false, "min_reps": 2`, 1)
	_, body := postQuery(t, ts, spec, "")
	recs := records(t, body)
	if len(recs) != 1 || recs[0]["type"] != "result" {
		t.Fatalf("stream:false must return the final record alone:\n%s", body)
	}
}

func TestQueryResample(t *testing.T) {
	srv, ts := newTestServer(t)
	spec := `{
	  "scenario": {"scale": "tiny", "size": 20, "k": 5, "staleness": 1,
	    "churn": "1/1", "churn_minutes": 12, "setup_minutes": 6,
	    "stabilize_minutes": 12, "snapshot_minutes": 6,
	    "sample_fraction": 0.1, "seed": 5},
	  "metric": "final_avg", "resample": {"fraction": 1.0, "seed": 99},
	  "threshold": 0.5, "min_reps": 2, "max_reps": 3
	}`
	resp, body := postQuery(t, ts, spec, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	recs := records(t, body)
	final := recs[len(recs)-1]
	if final["type"] != "result" {
		t.Fatalf("final record = %v", final)
	}
	// The resample reuses entries the threshold query will then hit: a
	// follow-up on the same scenario pays zero further builds.
	builds := srv.Arena().Builds()
	_, _ = postQuery(t, ts, querySpec, "")
	if got := srv.Arena().Builds(); got != builds {
		t.Fatalf("same-scenario follow-up paid %d new builds", got-builds)
	}
	// And repeating the resample query is byte-stable from the first warm
	// repeat on (memoized warm-engine analysis).
	_, warm1 := postQuery(t, ts, spec, "")
	_, warm2 := postQuery(t, ts, spec, "")
	if warm1 != warm2 {
		t.Fatalf("resample repeats unstable:\n%s\n%s", warm1, warm2)
	}
}

// badQueries are bodies POST /v1/query must answer with 400: malformed or
// unknown fields at decode, everything else at Resolve. FuzzQueryResolve
// seeds from the same table.
var badQueries = []string{
	`{`, // malformed JSON
	`{"scenario": {"scale": "tiny"}, "metric": "bogus", "threshold": 1}`,
	`{"scenario": {"scale": "tiny"}, "threshold": 1, "precision": 0.1}`,
	`{"scenario": {"scale": "tiny"}}`,                                    // no rule
	`{"scenario": {"scale": "tiny"}, "threshold": 1}`,                    // churn metric, no churn window
	`{"scenario": {"scale": "nope"}, "threshold": 1}`,                    // unknown scale
	`{"scenario": {"scale": "tiny"}, "threshold": 1, "max_reps": 10000}`, // over cap
	`{"scenario": {"scale": "tiny"}, "surprise": true, "threshold": 1}`,  // unknown field
	`{"scenario": {"scale": "tiny", "churn": "x"}, "threshold": 1}`,      // bad churn
	`{"scenario": {"scale": "tiny", "churn": "1/1"}, "threshold": 1,
	  "metric": "final_scc", "resample": {"fraction": 0.5}}`, // resample on wrong metric
	// Outside [0,1] a resample fraction would sweep all n(n-1) pairs under
	// the entry lock; the flat block's own fraction and minutes go through
	// the spec checker like an embedded document's.
	`{"scenario": {"scale": "tiny", "churn": "1/1"}, "threshold": 1,
	  "metric": "final_avg", "resample": {"fraction": -1}}`,
	`{"scenario": {"scale": "tiny", "churn": "1/1"}, "threshold": 1,
	  "metric": "final_avg", "resample": {"fraction": 7}}`,
	`{"scenario": {"scale": "tiny", "churn": "1/1", "sample_fraction": -0.5}, "threshold": 1}`,
	`{"scenario": {"scale": "tiny", "churn": "1/1", "setup_minutes": -3}, "threshold": 1}`,
	`{"scenario": {"scale": "tiny"}, "attack": {"strategy": "cutset", "budget": -4}, "threshold": 1}`,
}

func TestQueryValidation(t *testing.T) {
	_, ts := newTestServer(t)
	for i, spec := range badQueries {
		resp, body := postQuery(t, ts, spec, "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %d: status %d, want 400 (%s)", i, resp.StatusCode, body)
		}
		recs := records(t, body)
		if recs[0]["type"] != "error" || recs[0]["error"] == "" {
			t.Errorf("spec %d: error record = %v", i, recs[0])
		}
	}
}

// TestQueryBodyCap pins the request-size cap: the same valid query padded
// to one byte over maxQueryBytes is refused with 413 before resolution —
// the arena sees no miss or build and the scheduler no query — while
// padded to exactly the cap it still answers.
func TestQueryBodyCap(t *testing.T) {
	srv, ts := newTestServer(t)
	padded := func(size int) string {
		return strings.Repeat(" ", size-len(querySpec)) + querySpec
	}

	resp, body := postQuery(t, ts, padded(maxQueryBytes+1), "")
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-cap body: status %d: %s", resp.StatusCode, body)
	}
	if recs := records(t, body); len(recs) != 1 || recs[0]["type"] != "error" {
		t.Fatalf("over-cap body answered %q, want one error record", body)
	}
	if st := srv.Arena().Stats(); st.Misses != 0 || st.Builds != 0 {
		t.Fatalf("over-cap body reached the arena: %d misses, %d builds", st.Misses, st.Builds)
	}
	if st := srv.Sched().Stats(); st.Queued != 0 || st.Running != 0 || st.InUse != 0 {
		t.Fatalf("over-cap body reached the scheduler: %+v", st)
	}

	if resp, body := postQuery(t, ts, padded(maxQueryBytes), ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("body at the cap: status %d: %s", resp.StatusCode, body)
	}
}

func TestArenaAndHealthEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()

	postQuery(t, ts, querySpec, "")
	resp, err = http.Get(ts.URL + "/v1/arena")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ArenaStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Entries < 2 || st.Builds < 2 || st.BudgetBytes != DefaultArenaBudget {
		t.Fatalf("arena stats = %+v", st)
	}
	if len(st.Runs) != st.Entries {
		t.Fatalf("stats list %d runs for %d entries", len(st.Runs), st.Entries)
	}
	for _, run := range st.Runs {
		if run.SizeBytes <= 0 || run.FinalN <= 0 {
			t.Fatalf("entry stats = %+v", run)
		}
	}
}

func TestQueryDeterministicAcrossServerJobs(t *testing.T) {
	// A default server runs a query's reps GOMAXPROCS wide; servers built
	// under one and eight procs produce the same cold-query body, rep
	// records included: adaptive determinism carried through the HTTP
	// layer.
	run := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		srv := NewServer(Options{})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		_, body := postQuery(t, ts, querySpec, "")
		return body
	}
	if b1, b8 := run(1), run(8); b1 != b8 {
		t.Fatalf("cold bodies differ across server widths:\n%s\n%s", b1, b8)
	}
}

// TestQueryRepValuesAreTheirRuns guards the pointer-keyed metric lookup:
// the runner files each rep's value under the Result it returns, and the
// sweep pool must hand Extract that very Result. A miss would stream a
// null value; every rep's value must be its own run's metric.
func TestQueryRepValuesAreTheirRuns(t *testing.T) {
	srv, ts := newTestServer(t)
	spec := strings.Replace(querySpec, `"min_reps": 2`, `"min_reps": 3`, 1)
	_, body := postQuery(t, ts, spec, "")
	recs := records(t, body)
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 3 reps + the result:\n%s", len(recs), body)
	}
	qs, err := decodeQuery(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	q, err := qs.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	for rep, r := range recs[:3] {
		cfg := q.Config
		cfg.Seed = sweep.DeriveSeed(q.Config.Seed, rep)
		e, warm, err := srv.Arena().Get(context.Background(), cfg)
		if err != nil || !warm {
			t.Fatalf("rep %d: arena entry warm=%v err=%v", rep, warm, err)
		}
		want, err := metricFromResult(q.Metric, e.Result())
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := r["value"].(float64); !ok || got != want {
			t.Fatalf("rep %d streamed value %v, want its run's %s %v", rep, r["value"], q.Metric, want)
		}
	}
}
