package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"kadre/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// churnGoldenDoc is the serialized form of the churn-heavy golden run:
// every measured point plus the binding-path counters, so both the
// numbers AND the incremental/full routing of the per-snapshot analyses
// are byte-pinned.
type churnGoldenDoc struct {
	Points           []churnGoldenPoint `json:"points"`
	ChurnAdded       int                `json:"churn_added"`
	ChurnRemoved     int                `json:"churn_removed"`
	IncrementalBinds int                `json:"incremental_binds"`
	FullBinds        int                `json:"full_binds"`
}

type churnGoldenPoint struct {
	TMin     float64 `json:"t_min"`
	N        int     `json:"n"`
	Edges    int     `json:"edges"`
	Min      int     `json:"min_conn"`
	Avg      float64 `json:"avg_conn"`
	Symmetry float64 `json:"symmetry"`
	SCC      float64 `json:"scc_frac"`
}

// membersGoldenDoc extends the churn golden schema with the
// membership-rebind counter: the fixture pins not just the measurements
// but that join/leave snapshots actually took the incremental path.
type membersGoldenDoc struct {
	Points            []churnGoldenPoint `json:"points"`
	ChurnAdded        int                `json:"churn_added"`
	ChurnRemoved      int                `json:"churn_removed"`
	IncrementalBinds  int                `json:"incremental_binds"`
	FullBinds         int                `json:"full_binds"`
	MembershipRebinds int                `json:"membership_rebinds"`
}

// membersGoldenConfig is the run behind members_tiny.golden.json.
func membersGoldenConfig() Config {
	return Config{
		Name: "golden-members", Seed: 7, Size: 24, K: 6,
		Churn:            workload.Churn10_10,
		Setup:            4 * time.Minute,
		Stabilize:        4 * time.Minute,
		ChurnPhase:       8 * time.Minute,
		SnapshotInterval: time.Minute,
		SampleFraction:   0.25,
		Workers:          2,
	}
}

// churnGoldenConfig is the run behind churn_tiny.golden.json.
func churnGoldenConfig() Config {
	return Config{
		Name: "golden-churn", Seed: 11, Size: 30, K: 8,
		Churn:            workload.Churn10_10,
		Setup:            6 * time.Minute,
		Stabilize:        10 * time.Minute,
		ChurnPhase:       10 * time.Minute,
		SnapshotInterval: 2 * time.Minute,
		SampleFraction:   0.2,
		Workers:          2,
	}
}

// TestGoldenTinyMembersRun byte-pins a membership-churn-heavy scenario:
// snapshots every simulated minute under 10/10 churn, so nearly every
// adjacent snapshot pair differs in membership and the stable-slot
// engine must rebind incrementally ACROSS joins and departures — the
// workload that, before stable-slot population indexing, forced a full
// bind per snapshot. Regenerate intentionally with:
//
//	go test ./internal/scenario -run Golden -update
func TestGoldenTinyMembersRun(t *testing.T) {
	res, err := Run(membersGoldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	doc := membersGoldenDoc{
		ChurnAdded: res.ChurnAdded, ChurnRemoved: res.ChurnRemoved,
		IncrementalBinds: res.IncrementalBinds, FullBinds: res.FullBinds,
		MembershipRebinds: res.MembershipRebinds,
	}
	for _, p := range res.Points {
		doc.Points = append(doc.Points, churnGoldenPoint{
			TMin: p.Time.Minutes(), N: p.N, Edges: p.Edges,
			Min: p.Min, Avg: p.Avg, Symmetry: p.Symmetry, SCC: p.SCC,
		})
	}
	if res.MembershipRebinds == 0 {
		t.Fatal("membership-churn golden run never rebound incrementally across a join/leave")
	}
	if res.IncrementalBinds <= res.FullBinds {
		t.Fatalf("membership churn should rebind mostly incrementally: %d incremental vs %d full",
			res.IncrementalBinds, res.FullBinds)
	}
	got, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "members_tiny.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("tiny membership-churn run drifted from golden fixture %s (run with -update after intentional changes):\n--- got ---\n%s--- want ---\n%s",
			golden, got, want)
	}
}

// TestGoldenTinyChurnRun byte-pins a tiny churn-heavy scenario through
// the incremental snapshot path: frequent snapshots over a stabilization
// window (stable membership, so adjacent analyses rebind incrementally)
// followed by 10/10 churn (membership changes, full binds). Like the
// figure2/cutset fixtures, regenerate intentionally with:
//
//	go test ./internal/scenario -run Golden -update
func TestGoldenTinyChurnRun(t *testing.T) {
	res, err := Run(churnGoldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	doc := churnGoldenDoc{
		ChurnAdded: res.ChurnAdded, ChurnRemoved: res.ChurnRemoved,
		IncrementalBinds: res.IncrementalBinds, FullBinds: res.FullBinds,
	}
	for _, p := range res.Points {
		doc.Points = append(doc.Points, churnGoldenPoint{
			TMin: p.Time.Minutes(), N: p.N, Edges: p.Edges,
			Min: p.Min, Avg: p.Avg, Symmetry: p.Symmetry, SCC: p.SCC,
		})
	}
	if res.IncrementalBinds == 0 {
		t.Fatal("churn-heavy golden run never took the incremental snapshot path")
	}
	if res.FullBinds == 0 {
		t.Fatal("churn-heavy golden run never took the full-bind path")
	}
	got, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "churn_tiny.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("tiny churn run drifted from golden fixture %s (run with -update after intentional changes):\n--- got ---\n%s--- want ---\n%s",
			golden, got, want)
	}
}
