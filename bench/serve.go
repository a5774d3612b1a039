package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kadre/internal/serve"
)

// Query classes, told apart from outside by the final record.
const (
	classCold     = "cold"     // paid at least one simulation (arena_misses > 0)
	classWarm     = "warm"     // plain metric, every rep from the arena
	classResample = "resample" // re-sampled on the warm engine, no miss
)

// serveBlock is how many queries make one "pass" of the stream: run_s is
// the wall seconds the clients take per serveBlock completed queries.
const serveBlock = 100

// digestRequests is how many leading requests of the stream the result
// digest covers; every timed run completes at least this many.
const digestRequests = 100

// serveEnv is one set-up of the serve workload: the generated stream and
// a kadserve instance behind a loopback listener.
type serveEnv struct {
	spec   *serveSpec
	stream []request
	ts     *httptest.Server
	client *http.Client
}

// loadServe reads the workload file and applies the quick shrink.
func loadServe(o options) (*serveSpec, error) {
	sp, err := loadServeSpec(filepath.Join(o.dir, "workloads", o.workload+".json"))
	if err != nil {
		return nil, err
	}
	if o.quick {
		sp.Keys = len(sp.K) * len(sp.Churn)
		sp.Requests = 60
		sp.Size = 20
		sp.ChurnMinutes = 10
		sp.ArenaBudgetMB = 1
	}
	return sp, nil
}

// setupServe is everything a run pays before its first query: workload
// file, query stream, arena, server, listener.
func setupServe(o options) (*serveEnv, error) {
	sp, err := loadServe(o)
	if err != nil {
		return nil, err
	}
	stream, err := sp.genStream(o.seed)
	if err != nil {
		return nil, err
	}
	return startServe(sp, stream), nil
}

// startServe boots a fresh server for an already generated stream.
func startServe(sp *serveSpec, stream []request) *serveEnv {
	arena := serve.NewArena(serve.ArenaOptions{BudgetBytes: int64(sp.ArenaBudgetMB) << 20})
	srv := serve.NewServer(serve.Options{Arena: arena})
	ts := httptest.NewServer(srv.Handler())
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: sp.Clients, MaxConnsPerHost: sp.Clients,
	}}
	return &serveEnv{spec: sp, stream: stream, ts: ts, client: client}
}

func (e *serveEnv) close() {
	e.client.CloseIdleConnections()
	e.ts.Close()
}

// finalRecord is the part of kadserve's result record the client reads.
type finalRecord struct {
	Type        string          `json:"type"`
	Values      json.RawMessage `json:"values"`
	ArenaMisses int             `json:"arena_misses"`
}

// answer is one completed (or failed) query as its client saw it.
type answer struct {
	index    int
	class    string
	values   string
	err      error
	start    time.Time
	finished time.Time // last byte read
}

func (a answer) latencyMS() float64 { return float64(a.finished.Sub(a.start)) / 1e6 }

// runStream sends stream[:limit] from the env's closed-loop clients — a
// client issues its next query only once it holds the previous verdict —
// until the stream is exhausted or the deadline passes (a zero deadline
// never does). With a tracer, every request leaves a span with a headers
// and a stream child.
func (e *serveEnv) runStream(limit int, deadline time.Time, tr *tracer) []answer {
	if limit > len(e.stream) {
		limit = len(e.stream)
	}
	answers := make([]answer, limit)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < e.spec.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= limit || (!deadline.IsZero() && time.Now().After(deadline)) {
					return
				}
				answers[i] = e.query(i, tr)
			}
		}()
	}
	wg.Wait()
	// A client that saw the deadline pass took an index it never sent;
	// indices are handed out in order, so the sent ones form a prefix.
	sent := 0
	for sent < limit && !answers[sent].start.IsZero() {
		sent++
	}
	return answers[:sent]
}

// query POSTs request i and reads the NDJSON stream to its last record.
func (e *serveEnv) query(i int, tr *tracer) answer {
	a := answer{index: i, start: time.Now()}
	root, hdr := 0, 0
	if tr != nil {
		root = tr.start("serve.request", strconv.Itoa(i), 0)
		hdr = tr.start("serve.http.headers", strconv.Itoa(i), root)
		defer func() { tr.end(root) }()
	}
	resp, err := e.client.Post(e.ts.URL+"/v1/query", "application/json", bytes.NewReader(e.stream[i].Body))
	if tr != nil {
		tr.end(hdr)
	}
	if err != nil {
		a.err, a.finished = err, time.Now()
		return a
	}
	body := 0
	if tr != nil {
		body = tr.start("serve.http.stream", strconv.Itoa(i), root)
	}
	last, err := lastLine(resp.Body)
	resp.Body.Close()
	a.finished = time.Now()
	if tr != nil {
		tr.end(body)
	}
	switch {
	case err != nil:
		a.err = err
	case resp.StatusCode != http.StatusOK:
		a.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(last))
	default:
		var rec finalRecord
		if err := json.Unmarshal(last, &rec); err != nil || rec.Type != "result" {
			a.err = fmt.Errorf("no final result record (last line %q)", last)
			break
		}
		a.values = string(rec.Values)
		switch {
		case rec.ArenaMisses > 0:
			a.class = classCold
		case e.stream[i].Resample:
			a.class = classResample
		default:
			a.class = classWarm
		}
	}
	return a
}

// lastLine drains r and returns its last non-empty line.
func lastLine(r io.Reader) ([]byte, error) {
	var last []byte
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last, sc.Err()
}

// checkAnswers applies the serve output checks and returns one message
// per failed query (by stream index): transport or status failures, and
// a plain query whose values differ from the first answer to its key —
// cold or warm, a scenario has one answer.
func checkAnswers(stream []request, answers []answer) map[int]string {
	failed := map[int]string{}
	first := map[int]string{}
	for _, a := range answers {
		if a.err != nil {
			failed[a.index] = a.err.Error()
			continue
		}
		if stream[a.index].Resample {
			continue
		}
		key := stream[a.index].Key
		if want, ok := first[key]; !ok {
			first[key] = a.values
		} else if a.values != want {
			failed[a.index] = fmt.Sprintf("key %d answered %s, first answer was %s", key, a.values, want)
		}
	}
	return failed
}

// answersDigest hashes the values of the leading requests in stream
// order, resamples included: all are pure functions of the stream.
func answersDigest(answers []answer) string {
	h := sha256.New()
	n := min(len(answers), digestRequests)
	for _, a := range answers[:n] {
		fmt.Fprintf(h, "%d=%s\n", a.index, a.values)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// serveTimed is the untraced run of the serve workload.
func serveTimed(o options, r *report) error {
	// Set-up is paid many times over; the last one is kept and serves the
	// measured stream. Tearing the previous one down is part of the cost.
	groups, per := 10, 10
	if o.quick {
		groups, per = 1, 3
	}
	var env *serveEnv
	setupS, err := timeSetups(groups, per, func() (err error) {
		if env != nil {
			env.close()
		}
		env, err = setupServe(o)
		return err
	})
	if err != nil {
		return err
	}
	defer env.close()
	r.setSamples("setup_s", setupS)

	var deadline time.Time
	begin := time.Now()
	if !o.quick {
		deadline = begin.Add(time.Duration(o.seconds) * time.Second)
	}
	// Peak RSS is read over one-second windows of the stream.
	var rss rssMeter
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			rss.reset()
			select {
			case <-stop:
				rss.mark()
				return
			case <-tick.C:
				rss.mark()
			}
		}
	}()
	answers := env.runStream(len(env.stream), deadline, nil)
	wall := time.Since(begin).Seconds()
	close(stop)
	<-stopped

	failed := checkAnswers(env.stream, answers)
	r.Attempted, r.Failed = len(answers), len(failed)
	for _, i := range sortedKeys(failed) {
		r.fail("query %d: %s", i, failed[i])
	}
	r.ResultDigest = answersDigest(answers)

	lat := map[string][]float64{}
	for _, a := range answers {
		if a.err == nil {
			lat[a.class] = append(lat[a.class], a.latencyMS())
		}
	}
	done := float64(len(answers) - len(failed))
	r.setSamples("peak_rss_mb", rss.peaksMB)
	r.set("run_s", serveBlock*wall/done)
	r.set("qps", done/wall)
	r.setSamples("cold_p50_ms", lat[classCold])
	r.setSamples("warm_p50_ms", lat[classWarm])
	r.setSamples("resample_p50_ms", lat[classResample])
	return nil
}

func sortedKeys(m map[int]string) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
