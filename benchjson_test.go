package kadre

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"kadre/internal/maxflow"
)

// benchJSONOut enables the bench-trajectory mode: when set,
// TestBenchTrajectory runs the core benchmarks and writes their results
// as JSON. The value is either a directory (the file is named
// BENCH_<date>.json inside it) or an explicit .json path.
//
//	go test -run TestBenchTrajectory -benchtime 1x . -args -benchjson .
//
// CI runs this at -benchtime=1x as a smoke test; developers seeding a
// trajectory point should use the default benchtime for stable numbers
// and commit the resulting BENCH_<date>.json.
var benchJSONOut = flag.String("benchjson", "", "write bench-trajectory JSON to this directory or .json path")

// benchJSONComment is recorded in the trajectory file's comment field: what
// a reader comparing this point with its neighbours has to know (a
// benchmark redefined, a different host).
var benchJSONComment = flag.String("benchcomment", "", "comment recorded in the bench-trajectory JSON")

// benchTrajectoryEntry is one benchmark's measurement in the trajectory
// file. Only rate quantities are recorded — iteration counts depend on
// benchtime and are reported for context, not comparison.
type benchTrajectoryEntry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// benchTrajectoryFile is the BENCH_<date>.json document.
type benchTrajectoryFile struct {
	Date       string                 `json:"date"`
	GoVersion  string                 `json:"go_version"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Scale      string                 `json:"scale"`
	Comment    string                 `json:"comment,omitempty"`
	Benchmarks []benchTrajectoryEntry `json:"benchmarks"`
}

// TestBenchTrajectory seeds the performance trajectory: it runs the
// snapshot-analysis benchmarks, the max-flow algorithm benchmarks, a
// no-traffic and a traffic figure regeneration at tiny scale, the
// simulator's layers one by one (a simulated minute, the event queue, the
// routing table's closest search, one lookup) and one cutset strike's
// recon (capture, bind, cut), then writes ns/op and
// allocs/op to BENCH_<date>.json. Skipped unless -benchjson is set, so the regular
// test suite stays benchmark-free.
func TestBenchTrajectory(t *testing.T) {
	if *benchJSONOut == "" {
		t.Skip("bench trajectory disabled; pass -args -benchjson <dir|file.json> to enable")
	}
	benches := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"SnapshotAnalysis", BenchmarkSnapshotAnalysis},
		{"SnapshotAnalysisFused", BenchmarkSnapshotAnalysisFused},
		{"MaxflowAlgorithms/dinic", maxflowAlgoBench(maxflow.Dinic)},
		{"MaxflowAlgorithms/hao-orlin", maxflowAlgoBench(maxflow.HaoOrlin)},
		{"ChurnSequence/members-rebind-haoorlin", memberChurnSequenceBench(true)},
		{"ChurnSequence/members-bind-haoorlin", memberChurnSequenceBench(false)},
		{"Figure2SimA", func(b *testing.B) { benchFigure(b, "figure2") }},
		{"Figure6SimE", func(b *testing.B) { benchFigure(b, "figure6") }},
		{"SimulationMinute", BenchmarkSimulationMinute},
		{"EventsimSchedulePop", BenchmarkEventsimSchedulePop},
		{"RoutingTableClosest", BenchmarkRoutingTableClosest},
		{"NodeLookup", BenchmarkNodeLookup},
		{"ReconCaptureBind", BenchmarkReconCaptureBind},
	}
	doc := benchTrajectoryFile{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      "tiny",
		Comment:    *benchJSONComment,
	}
	for _, bench := range benches {
		res := testing.Benchmark(bench.fn)
		if res.N == 0 {
			t.Fatalf("benchmark %s did not run (failed inside testing.Benchmark?)", bench.name)
		}
		doc.Benchmarks = append(doc.Benchmarks, benchTrajectoryEntry{
			Name:        bench.name,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			Iterations:  res.N,
		})
		t.Logf("%s: %.0f ns/op, %d allocs/op (%d iterations)",
			bench.name, float64(res.T.Nanoseconds())/float64(res.N), res.AllocsPerOp(), res.N)
	}

	path := *benchJSONOut
	if info, err := os.Stat(path); err == nil && info.IsDir() {
		path = filepath.Join(path, fmt.Sprintf("BENCH_%s.json", doc.Date))
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}
