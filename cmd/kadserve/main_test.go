package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testServer is one running kadserve instance driven through run().
type testServer struct {
	addr    string
	sigs    chan os.Signal
	done    chan error
	stopped atomic.Bool
	mu      sync.Mutex
	out     bytes.Buffer
}

// waitDone consumes run()'s return exactly once.
func (s *testServer) waitDone(t *testing.T) error {
	t.Helper()
	select {
	case err := <-s.done:
		s.stopped.Store(true)
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("server never exited")
		return nil
	}
}

func (s *testServer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.out.Write(p)
}

func (s *testServer) log() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.out.String()
}

func startServer(t *testing.T, extraArgs ...string) *testServer {
	t.Helper()
	s := &testServer{
		sigs: make(chan os.Signal, 1),
		done: make(chan error, 1),
	}
	readyCh := make(chan string, 1)
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	go func() {
		s.done <- run(args, s, func(addr string) { readyCh <- addr }, s.sigs)
	}()
	select {
	case s.addr = <-readyCh:
	case err := <-s.done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	t.Cleanup(func() {
		if s.stopped.Load() {
			return
		}
		s.sigs <- syscall.SIGTERM
		select {
		case <-s.done:
		case <-time.After(30 * time.Second):
		}
	})
	return s
}

func (s *testServer) shutdown(t *testing.T) error {
	t.Helper()
	s.sigs <- syscall.SIGTERM
	return s.waitDone(t)
}

func smokeSpec(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "smoke_query.json"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// finalRecord posts a query file from testdata to the server and returns
// the stream's last record, checking that rep records came first.
func finalRecord(t *testing.T, s *testServer, query string) string {
	t.Helper()
	body, err := os.ReadFile(filepath.Join("testdata", query))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+s.addr+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", query, resp.StatusCode)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) < 2 {
		t.Fatalf("%s: got %d records, want rep records plus a result", query, len(lines))
	}
	return lines[len(lines)-1]
}

// TestSmokeQueryGolden runs the CI smoke query against a fresh server,
// then two final_avg resamples of its warm entries and a plain final_avg
// query (three warm reps, one cold), and compares each final NDJSON
// record byte-for-byte with its committed fixture — the same comparisons
// the CI workflow's curl steps perform. The resamples are answered by the
// entries' engines, so their fixtures pin the bytes of the AnalyzeSnapshot
// memo path; the plain query pins the final point's own Avg.
// Regenerate with: go test ./cmd/kadserve -run Golden -update
func TestSmokeQueryGolden(t *testing.T) {
	s := startServer(t)
	for _, c := range []struct{ query, golden string }{
		{"smoke_query.json", "smoke_final.golden"},
		{"smoke_resample_1.json", "smoke_resample_1.golden"},
		{"smoke_resample_2.json", "smoke_resample_2.golden"},
		{"smoke_final_avg.json", "smoke_final_avg.golden"},
	} {
		got := finalRecord(t, s, c.query)
		path := filepath.Join("testdata", c.golden)
		if *update {
			if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		golden, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := strings.TrimSpace(string(golden)); got != want {
			t.Fatalf("%s: final record drifted from %s:\ngot:  %s\nwant: %s", c.query, c.golden, got, want)
		}
	}
	if err := s.shutdown(t); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if log := s.log(); !strings.Contains(log, "draining") || !strings.Contains(log, "drained") {
		t.Fatalf("log missing drain markers:\n%s", log)
	}
}

// TestGracefulDrainCompletesInFlight pins the SIGTERM contract: a query
// already streaming when the signal arrives runs to completion and
// receives its final record; only then does the process exit cleanly.
func TestGracefulDrainCompletesInFlight(t *testing.T) {
	// -max-concurrent-sims 1 serializes replications, so after the first
	// rep record the query is guaranteed still in flight.
	s := startServer(t, "-max-concurrent-sims", "1")
	resp, err := http.Post("http://"+s.addr+"/v1/query", "application/json",
		strings.NewReader(smokeSpec(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first record: %v", sc.Err())
	}
	first := sc.Text()
	if !strings.Contains(first, `"type":"rep"`) {
		t.Fatalf("first record = %s", first)
	}

	// The query is mid-flight: pull the plug.
	s.sigs <- syscall.SIGTERM

	last := first
	for sc.Scan() {
		last = sc.Text()
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream broken during drain: %v", err)
	}
	if !strings.Contains(last, `"type":"result"`) {
		t.Fatalf("in-flight query never got its result record, last = %s", last)
	}

	if err := s.waitDone(t); err != nil {
		t.Fatalf("drain returned %v", err)
	}
	// Drained means drained: new connections must be refused.
	if _, err := http.Get("http://" + s.addr + "/v1/healthz"); err == nil {
		t.Fatal("server still accepting after drain")
	}
}

// TestClientDisconnectCancelsQuery is the CI cancellation probe in test
// form: kill the client after the first rep record, then assert the
// server reports itself healthy with zero running queries and a released
// admission queue — the disconnected query must not leak its slot.
func TestClientDisconnectCancelsQuery(t *testing.T) {
	s := startServer(t, "-max-concurrent-sims", "1")
	spec, err := os.ReadFile(filepath.Join("testdata", "cancel_query.json"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST",
		"http://"+s.addr+"/v1/query", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() || !strings.Contains(sc.Text(), `"type":"rep"`) {
		t.Fatalf("no first rep record: %q %v", sc.Text(), sc.Err())
	}
	cancel()
	resp.Body.Close()

	// The kernel stops within one event batch; well before this deadline
	// the /v1/arena breakdown must show the query gone and its slot free.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st struct {
			Sched struct {
				InUse    int64 `json:"in_use"`
				Queued   int64 `json:"queued"`
				Running  int64 `json:"running"`
				Canceled int64 `json:"canceled"`
			} `json:"sched"`
		}
		ar, err := http.Get("http://" + s.addr + "/v1/arena")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(ar.Body).Decode(&st)
		ar.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Sched.Running == 0 && st.Sched.Queued == 0 && st.Sched.InUse == 0 {
			if st.Sched.Canceled != 1 {
				t.Fatalf("canceled counter = %d, want 1", st.Sched.Canceled)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query never released its admission slot: %+v", st.Sched)
		}
		time.Sleep(10 * time.Millisecond)
	}

	hz, err := http.Get("http://" + s.addr + "/v1/healthz")
	if err != nil || hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz after cancellation: %v %v", hz, err)
	}
	hz.Body.Close()
	if err := s.shutdown(t); err != nil {
		t.Fatalf("drain after cancellation: %v", err)
	}
}

func TestBadFlags(t *testing.T) {
	if err := run([]string{"-bogus"}, &bytes.Buffer{}, nil, nil); err == nil {
		t.Fatal("unknown flag must error")
	}
	// The governance policy is a constant, not a flag, and a query's
	// width follows -max-concurrent-sims.
	for _, flag := range []string{"-max-dead-frac", "-jobs"} {
		if err := run([]string{flag, "0"}, &bytes.Buffer{}, nil, nil); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Fatalf("%s: err = %v, want an unknown-flag error", flag, err)
		}
	}
}
