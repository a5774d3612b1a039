package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"kadre/internal/churn"
	"kadre/internal/eventsim"
	"kadre/internal/graph"
	"kadre/internal/kademlia"
	"kadre/internal/scenario"
	"kadre/internal/simnet"
	"kadre/internal/snapshot"
)

var update = flag.Bool("update", false, "rewrite golden files")

// writeTestSnapshot builds a small settled network and persists it.
func writeTestSnapshot(t *testing.T, path string) {
	t.Helper()
	sim := eventsim.New(3)
	net := simnet.New(sim, simnet.Config{})
	cfg := kademlia.Config{Bits: 64, K: 4, Alpha: 3, StalenessLimit: 1}
	var nodes []*kademlia.Node
	for i := 0; i < 20; i++ {
		n, err := kademlia.NewNode(cfg, simnet.Addr(i+1), net)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	for _, n := range nodes[1:] {
		if err := n.Join(nodes[0].Contact(), nil); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunUntil(5 * time.Minute)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := snapshot.Capture(sim.Now(), nodes).WriteJSON(f); err != nil {
		t.Fatal(err)
	}
}

func TestRunAnalyzeJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	writeTestSnapshot(t, path)
	if err := run([]string{"-in", path, "-c", "1"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", path, "-c", "0.2"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", path, "-c", "0.2", "-workers", "2"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// firstNonAdjacentPair returns the lexicographically first ordered pair
// of the snapshot at path that -pair accepts, as "v,w".
func firstNonAdjacentPair(t *testing.T, path string) string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := snapshot.ReadJSON(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < s.N(); v++ {
		for w := 0; w < s.N(); w++ {
			if v != w && !s.Graph.HasEdge(v, w) {
				return fmt.Sprintf("%d,%d", v, w)
			}
		}
	}
	t.Fatal("snapshot graph is complete")
	return ""
}

func TestRunPairMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	writeTestSnapshot(t, path)
	if err := run([]string{"-in", path, "-pair", firstNonAdjacentPair(t, path)}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenOutput pins kadconn's stdout byte for byte for the default
// sampled run, a full sweep (-c 1) and one pair on writeTestSnapshot's
// network.
// Regenerate with: go test ./cmd/kadconn -run Golden -update
func TestGoldenOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	writeTestSnapshot(t, path)
	var buf bytes.Buffer
	for _, flags := range [][]string{{}, {"-c", "1"}, {"-pair", firstNonAdjacentPair(t, path)}} {
		fmt.Fprintln(&buf, strings.Join(append([]string{"$ kadconn"}, flags...), " "))
		if err := run(append([]string{"-in", path}, flags...), &buf); err != nil {
			t.Fatal(err)
		}
	}
	golden := filepath.Join("testdata", "run.golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("output drifted from golden %s (run with -update to regenerate after intentional changes):\n--- got ---\n%s--- want ---\n%s", golden, buf.Bytes(), want)
	}
}

// TestRunOfflineEndToEnd is the paper's offline method on one run: a
// tiny churned scenario (its final minimum, 1, sits below k) persists
// its final snapshot the way kadsim -snapshots does, kadconn at the
// run's sampling fraction reports the minimum connectivity the run
// measured on it, and -emit-dimacs hands the same graph on as the
// 2n-vertex, (n+m)-arc max-flow problem of its Even transform, source
// and sink included.
func TestRunOfflineEndToEnd(t *testing.T) {
	cfg := scenario.Config{
		Name: "offline", Seed: 2, Size: 20, K: 4, Bits: 64, Staleness: 1,
		Setup: 6 * time.Minute, Stabilize: 12 * time.Minute,
		SnapshotInterval: 6 * time.Minute, SampleFraction: 0.1,
		Churn: churn.Rate{Add: 2, Remove: 2}, ChurnPhase: 6 * time.Minute,
	}
	var final bytes.Buffer
	cfg.OnSnapshot = func(s *snapshot.Snapshot, _ scenario.SnapshotStat) {
		final.Reset()
		if err := s.WriteJSON(&final); err != nil {
			t.Error(err)
		}
	}
	res, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	snapPath, dimacsPath := filepath.Join(dir, "final.json"), filepath.Join(dir, "even.dimacs")
	if err := os.WriteFile(snapPath, final.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	c := strconv.FormatFloat(cfg.SampleFraction, 'g', -1, 64)
	if err := run([]string{"-in", snapPath, "-c", c}, &out); err != nil {
		t.Fatal(err)
	}
	last := res.Points[len(res.Points)-1]
	if want := fmt.Sprintf("kappa(D) = %d over ", last.Min); !strings.Contains(out.String(), want) {
		t.Errorf("kadconn -c %s printed\n%s\nwant the run's final minimum %q", c, out.String(), want)
	}

	if err := run([]string{"-in", snapPath, "-emit-dimacs", dimacsPath}, io.Discard); err != nil {
		t.Fatal(err)
	}
	emitted, err := os.ReadFile(dimacsPath)
	if err != nil {
		t.Fatal(err)
	}
	n, m := last.N, last.Edges
	problem := regexp.MustCompile(fmt.Sprintf(`\np max %d %d\nn \d+ s\nn \d+ t\n`, 2*n, n+m))
	if !problem.Match(emitted) {
		t.Errorf("emitted problem lacks the lines %q", problem)
	}
	if arcs := strings.Count(string(emitted), "\na "); arcs != n+m {
		t.Errorf("emitted problem has %d arcs, want %d", arcs, n+m)
	}
}

// TestRunEmitDIMACSRejectsCompleteGraph: a complete graph has no
// non-adjacent pair to serve as source and sink, so there is no
// max-flow problem to write.
func TestRunEmitDIMACSRejectsCompleteGraph(t *testing.T) {
	dir := t.TempDir()
	in, out := filepath.Join(dir, "k3.json"), filepath.Join(dir, "even.dimacs")
	nodes := `{"id":"0000000000000001","addr":1},{"id":"0000000000000002","addr":2},{"id":"0000000000000003","addr":3}`
	body := `{"bits":64,"nodes":[` + nodes + `],"edges":[[0,1],[0,2],[1,0],[1,2],[2,0],[2,1]]}`
	if err := os.WriteFile(in, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", in, "-emit-dimacs", out}, io.Discard); err == nil || !strings.Contains(err.Error(), "complete") {
		t.Fatalf("err = %v, want one naming the complete graph", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a refused emit left %s behind (stat: %v)", out, err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{}, io.Discard); err == nil {
		t.Error("missing -in should fail")
	}
	if err := run([]string{"-in", "/nonexistent/file.json"}, io.Discard); err == nil {
		t.Error("missing file should fail")
	}
	path := filepath.Join(t.TempDir(), "snap.json")
	writeTestSnapshot(t, path)
	// One input format, and -c 1 is the full sweep.
	for _, flag := range []string{"-format", "-full"} {
		if err := run([]string{"-in", path, flag}, io.Discard); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err = %v, want an undefined-flag error", flag, err)
		}
	}
	for _, c := range []string{"-0.5", "NaN"} {
		if err := run([]string{"-in", path, "-c", c}, io.Discard); err == nil || !strings.Contains(err.Error(), "sample fraction") {
			t.Errorf("-c %s: err = %v, want a sample-fraction error", c, err)
		}
	}
	for _, spec := range []string{"zz", "3,17,99", "3,17x", "3", "a,b", "3,", ",17"} {
		if err := run([]string{"-in", path, "-pair", spec}, io.Discard); err == nil || !strings.Contains(err.Error(), "bad -pair") {
			t.Errorf("-pair %s: err = %v, want a bad-pair error", spec, err)
		}
	}
}

// TestRunRejectsSampleFractionAboveOne holds kadconn to the range kadsim
// and spec files accept: a -c above 1 (or +Inf) is an error, so main
// exits 1, and nothing is read or swept first. It used to run as a full
// sweep.
func TestRunRejectsSampleFractionAboveOne(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	writeTestSnapshot(t, path)
	for _, c := range []string{"1.5", "7", "+Inf"} {
		var out bytes.Buffer
		err := run([]string{"-in", path, "-c", c}, &out)
		if err == nil || !strings.Contains(err.Error(), "sample fraction") {
			t.Errorf("-c %s: err = %v, want a sample-fraction error", c, err)
		}
		if out.Len() != 0 {
			t.Errorf("-c %s: printed %q before refusing", c, out.String())
		}
	}
}

// TestRunEmitDIMACSAtVertexLimit emits the Even transform of a
// graph.MaxVertices-node cycle snapshot and holds the whole run's
// allocation under 1.5 times the input's rows: the transformed graph
// streams out as an edge list, where materialising its 2n rows would add
// four times the input's.
func TestRunEmitDIMACSAtVertexLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates the 128 MiB of rows a graph at the vertex limit takes")
	}
	const n = graph.MaxVertices
	var in strings.Builder
	in.WriteString(`{"bits":64,"nodes":[`)
	for v := 0; v < n; v++ {
		if v > 0 {
			in.WriteByte(',')
		}
		fmt.Fprintf(&in, `{"id":"%016x","addr":%d}`, v+1, v+1)
	}
	in.WriteString(`],"edges":[`)
	for v := 0; v < n; v++ {
		if v > 0 {
			in.WriteByte(',')
		}
		fmt.Fprintf(&in, "[%d,%d]", v, (v+1)%n)
	}
	in.WriteString("]}")
	dir := t.TempDir()
	inPath, outPath := filepath.Join(dir, "cycle.json"), filepath.Join(dir, "even.dimacs")
	if err := os.WriteFile(inPath, []byte(in.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	rows := uint64(n) * n / 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := run([]string{"-in", inPath, "-emit-dimacs", outPath}, io.Discard); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > rows*3/2 {
		t.Errorf("emit at the vertex limit allocated %d MiB, want under %d MiB", alloc>>20, rows*3/2>>20)
	}
	out, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("p max %d %d\n", 2*n, 2*n); !strings.Contains(string(out), want) {
		t.Errorf("output lacks the problem line %q", want)
	}
	if arcs := strings.Count(string(out), "\na "); arcs != 2*n {
		t.Errorf("output has %d arcs, want %d", arcs, 2*n)
	}
}

// TestRunRejectsHostileGraphs pins that a self-loop or an oversize
// snapshot is an error rather than a panic or a quadratic allocation.
func TestRunRejectsHostileGraphs(t *testing.T) {
	node := `{"id":"0000000000000001","addr":1}`
	inputs := []struct{ name, body, want string }{
		{"json self-loop", `{"bits":64,"nodes":[` + node + `],"edges":[[0,0]]}`, "self-loop"},
		{"json oversize", `{"bits":64,"nodes":[` + strings.Repeat(node+",", graph.MaxVertices) + node + `]}`, "exceed the limit"},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "in")
			if err := os.WriteFile(path, []byte(in.body), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := run([]string{"-in", path}, io.Discard); err == nil || !strings.Contains(err.Error(), in.want) {
				t.Fatalf("err = %v, want one naming %q", err, in.want)
			}
		})
	}
}
