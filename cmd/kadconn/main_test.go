package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"kadre/internal/eventsim"
	"kadre/internal/graph"
	"kadre/internal/kademlia"
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
	if err := run([]string{"-in", path, "-full"}, io.Discard); err != nil {
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
// sampled run, a full sweep and one pair on writeTestSnapshot's network.
// Regenerate with: go test ./cmd/kadconn -run Golden -update
func TestGoldenOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	writeTestSnapshot(t, path)
	var buf bytes.Buffer
	for _, flags := range [][]string{{}, {"-full"}, {"-pair", firstNonAdjacentPair(t, path)}} {
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

func TestRunEmitDIMACSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "snap.json")
	dimacsPath := filepath.Join(dir, "transformed.dimacs")
	writeTestSnapshot(t, jsonPath)
	if err := run([]string{"-in", jsonPath, "-emit-dimacs", dimacsPath}, io.Discard); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(dimacsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	prob, err := graph.ReadDIMACS(f)
	if err != nil {
		t.Fatal(err)
	}
	// Even transform doubles the vertex count.
	if prob.Graph.N()%2 != 0 || prob.Graph.N() == 0 {
		t.Fatalf("transformed graph has %d vertices", prob.Graph.N())
	}
	// The DIMACS file itself is analyzable.
	if err := run([]string{"-in", dimacsPath, "-format", "dimacs", "-c", "0.05"}, io.Discard); err != nil {
		t.Fatal(err)
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
	if err := run([]string{"-in", path, "-format", "yaml"}, io.Discard); err == nil {
		t.Error("unknown format should fail")
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

// TestRunEmitDIMACSAtVertexLimit emits the Even transform of a
// graph.MaxVertices-vertex cycle and holds the whole run's allocation
// under 1.5 times the input's rows: the transformed graph streams out
// as an edge list, where materialising its 2n rows would add four times
// the input's.
func TestRunEmitDIMACSAtVertexLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates the 128 MiB of rows a graph at the vertex limit takes")
	}
	const n = graph.MaxVertices
	var in strings.Builder
	fmt.Fprintf(&in, "p max %d %d\n", n, n)
	for v := 1; v <= n; v++ {
		fmt.Fprintf(&in, "a %d %d 1\n", v, v%n+1)
	}
	dir := t.TempDir()
	inPath, outPath := filepath.Join(dir, "cycle.dimacs"), filepath.Join(dir, "even.dimacs")
	if err := os.WriteFile(inPath, []byte(in.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	rows := uint64(n) * n / 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := run([]string{"-in", inPath, "-format", "dimacs", "-emit-dimacs", outPath}, io.Discard); err != nil {
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

// TestRunRejectsHostileGraphs pins that a self-loop or an oversize graph,
// in either input format, is an error rather than a panic or a
// quadratic allocation.
func TestRunRejectsHostileGraphs(t *testing.T) {
	node := `{"id":"0000000000000001","addr":1}`
	inputs := []struct{ name, format, body, want string }{
		{"dimacs self-loop", "dimacs", "p max 2 1\na 2 2 1\n", "self-loop"},
		{"dimacs oversize", "dimacs", fmt.Sprintf("p max %d 0\n", graph.MaxVertices+1), "exceed the limit"},
		{"json self-loop", "json", `{"bits":64,"nodes":[` + node + `],"edges":[[0,0]]}`, "self-loop"},
		{"json oversize", "json", `{"bits":64,"nodes":[` + strings.Repeat(node+",", graph.MaxVertices) + node + `]}`, "exceed the limit"},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "in")
			if err := os.WriteFile(path, []byte(in.body), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := run([]string{"-in", path, "-format", in.format}, io.Discard); err == nil || !strings.Contains(err.Error(), in.want) {
				t.Fatalf("err = %v, want one naming %q", err, in.want)
			}
		})
	}
}
