package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTrajectory writes a canned BENCH file and returns its path.
func writeTrajectory(t *testing.T, dir, name string, entries []benchEntry) string {
	t.Helper()
	doc := benchFile{Date: "2026-01-01", GoVersion: "go1.24.0", GOMAXPROCS: 4, Scale: "tiny", Benchmarks: entries}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func canned(t *testing.T) (old, new string) {
	dir := t.TempDir()
	old = writeTrajectory(t, dir, "old.json", []benchEntry{
		{Name: "SnapshotAnalysis", NsPerOp: 100e6, AllocsPerOp: 3, Iterations: 10},
		{Name: "MaxflowAlgorithms/dinic", NsPerOp: 250e3, AllocsPerOp: 0, Iterations: 5000},
		{Name: "Legacy", NsPerOp: 5e3, AllocsPerOp: 1, Iterations: 100},
	})
	new = writeTrajectory(t, dir, "new.json", []benchEntry{
		{Name: "SnapshotAnalysis", NsPerOp: 40e6, AllocsPerOp: 3, Iterations: 25},           // -60%: improvement
		{Name: "MaxflowAlgorithms/dinic", NsPerOp: 300e3, AllocsPerOp: 0, Iterations: 4000}, // +20%: regression
		{Name: "ChurnSequence/rebind", NsPerOp: 12e6, AllocsPerOp: 6, Iterations: 80},       // added
	})
	return old, new
}

func TestDiffTable(t *testing.T) {
	old, new := canned(t)
	var buf bytes.Buffer
	if err := run([]string{old, new}, &buf); err != nil {
		t.Fatalf("informational diff failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"SnapshotAnalysis", "-60.00%",
		"MaxflowAlgorithms/dinic", "+20.00%",
		"Legacy", "removed",
		"ChurnSequence/rebind", "added",
		"100ms", "40ms",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("diff table missing %q:\n%s", want, out)
		}
	}
}

func TestRegressionGate(t *testing.T) {
	old, new := canned(t)
	var buf bytes.Buffer
	// 25% tolerance lets the +20% dinic regression pass.
	if err := run([]string{"-max-regress", "25", old, new}, &buf); err != nil {
		t.Fatalf("within-tolerance run failed: %v\n%s", err, buf.String())
	}
	// 10% tolerance: it fails, naming the offender.
	buf.Reset()
	err := run([]string{"-max-regress", "10", old, new}, &buf)
	if err == nil {
		t.Fatalf("10%% gate did not fail:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "REGRESSION: MaxflowAlgorithms/dinic") {
		t.Fatalf("gate output does not name the regressed benchmark:\n%s", buf.String())
	}
	// The gate never fires on removed/added benchmarks or improvements.
	if strings.Contains(buf.String(), "REGRESSION: SnapshotAnalysis") ||
		strings.Contains(buf.String(), "REGRESSION: Legacy") ||
		strings.Contains(buf.String(), "REGRESSION: ChurnSequence/rebind") {
		t.Fatalf("gate fired on a non-regression:\n%s", buf.String())
	}
}

// TestOneSidedNamesNeitherFailNorGate pins what retiring or adding a
// benchmark does to a two-point diff: names present in one file only are
// listed as removed/added and never trip even the tightest gate — however
// extreme their numbers.
func TestOneSidedNamesNeitherFailNorGate(t *testing.T) {
	dir := t.TempDir()
	common := []benchEntry{
		{Name: "SnapshotAnalysis", NsPerOp: 100e6, AllocsPerOp: 3},
		{Name: "MaxflowAlgorithms/dinic", NsPerOp: 250e3},
	}
	old := writeTrajectory(t, dir, "old.json", append([]benchEntry{
		{Name: "MaxflowAlgorithms/push-relabel", NsPerOp: 1}}, common...))
	new := writeTrajectory(t, dir, "new.json", append([]benchEntry{
		{Name: "ChurnSequence/members-bind-haoorlin", NsPerOp: 9e12}}, common...))
	var buf bytes.Buffer
	if err := run([]string{"-max-regress", "0.01", old, new}, &buf); err != nil {
		t.Fatalf("one-sided names failed the diff: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"push-relabel", "removed", "members-bind-haoorlin", "added"} {
		if !strings.Contains(out, want) {
			t.Fatalf("diff table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "REGRESSION") {
		t.Fatalf("gate fired on a one-sided name:\n%s", out)
	}
}

// TestGateIsRawDeltas: the gate reads each benchmark's own ns/op change.
// A point on which many benchmarks got faster leaves an unchanged one at
// +0.00 %, where a host factor divided out of every file would flag it,
// and "-ratio" is no flag.
func TestGateIsRawDeltas(t *testing.T) {
	dir := t.TempDir()
	old := writeTrajectory(t, dir, "old.json", []benchEntry{
		{Name: "SnapshotAnalysis", NsPerOp: 100e6},
		{Name: "ChurnSequence/rebind", NsPerOp: 12e6},
		{Name: "SimulationMinute", NsPerOp: 500e6},
	})
	new := writeTrajectory(t, dir, "new.json", []benchEntry{
		{Name: "SnapshotAnalysis", NsPerOp: 20e6},
		{Name: "ChurnSequence/rebind", NsPerOp: 2.4e6},
		{Name: "SimulationMinute", NsPerOp: 500e6},
	})
	var buf bytes.Buffer
	if err := run([]string{"-max-regress", "1", old, new}, &buf); err != nil {
		t.Fatalf("an unchanged benchmark tripped the gate: %v\n%s", err, buf.String())
	}
	if out := buf.String(); !strings.Contains(out, "+0.00%") || strings.Contains(out, "normaliz") {
		t.Fatalf("the unchanged benchmark does not read +0.00%%, or a normalization is reported:\n%s", out)
	}
	if err := run([]string{"-ratio=false", old, new}, &bytes.Buffer{}); err == nil {
		t.Fatal("-ratio is accepted")
	}
}

func TestTrendTable(t *testing.T) {
	dir := t.TempDir()
	p1 := writeTrajectory(t, dir, "a.json", []benchEntry{
		{Name: "SnapshotAnalysis", NsPerOp: 100e6},
		{Name: "Legacy", NsPerOp: 5e3},
	})
	p2 := writeTrajectory(t, dir, "b.json", []benchEntry{
		{Name: "SnapshotAnalysis", NsPerOp: 60e6},
		{Name: "Legacy", NsPerOp: 5e3},
		{Name: "ChurnSequence/members-rebind-haoorlin", NsPerOp: 50e6},
	})
	p3 := writeTrajectory(t, dir, "c.json", []benchEntry{
		{Name: "SnapshotAnalysis", NsPerOp: 20e6},
		{Name: "ChurnSequence/members-rebind-haoorlin", NsPerOp: 45e6},
	})
	var buf bytes.Buffer
	// Three positional files flip into trend mode without the flag.
	if err := run([]string{p1, p2, p3}, &buf); err != nil {
		t.Fatalf("trend run failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"trajectory: 3 points",
		"SnapshotAnalysis", "█▄▁", "-80.00%", // monotone improvement, full series
		"Legacy", "▁▁·", // flat then absent
		"ChurnSequence/members-rebind-haoorlin", "·█▁", "-10.00%", // appears at point 2
		"100ms", "20ms",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("trend table missing %q:\n%s", want, out)
		}
	}
	// The explicit flag works with exactly two files too.
	buf.Reset()
	if err := run([]string{"-trend", p1, p2}, &buf); err != nil {
		t.Fatalf("two-point trend failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "trajectory: 2 points") {
		t.Fatalf("two-point trend not rendered:\n%s", buf.String())
	}
	// A single file renders a one-point trajectory (the state of the world
	// right after the first BENCH file is committed) instead of erroring.
	buf.Reset()
	if err := run([]string{"-trend", p1}, &buf); err != nil {
		t.Fatalf("single-file trend failed: %v\n%s", err, buf.String())
	}
	for _, want := range []string{"trajectory: 1 point,", "SnapshotAnalysis"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("single-point trend missing %q:\n%s", want, buf.String())
		}
	}
	// A one-point series has no first-to-last movement: the delta column
	// renders "-", never a fabricated percentage.
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, "SnapshotAnalysis") && !strings.HasSuffix(strings.TrimRight(line, " "), "-") {
			t.Fatalf("single-point delta is not '-': %q", line)
		}
	}
	// No files at all (an unmatched glob) is a clean error, not a panic or
	// an empty table.
	if err := run([]string{"-trend"}, &bytes.Buffer{}); err == nil {
		t.Fatal("zero-file trend should be rejected")
	}
	// A regression gate never silently degrades into an ungated trend —
	// three files with -max-regress is an error, not a sparkline.
	if err := run([]string{"-max-regress", "5", p1, p2, p3}, &bytes.Buffer{}); err == nil {
		t.Fatal("-max-regress with three files should be rejected, not bypass the gate")
	}
}

func TestTrendAgainstRealTrajectories(t *testing.T) {
	matches, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil || len(matches) < 2 {
		t.Skipf("need two committed BENCH files, have %d", len(matches))
	}
	var buf bytes.Buffer
	if err := run(append([]string{"-trend"}, matches...), &buf); err != nil {
		t.Fatalf("trend over committed trajectories: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "SnapshotAnalysis") {
		t.Fatalf("no trend rendered:\n%s", buf.String())
	}
}

func TestBadInputs(t *testing.T) {
	dir := t.TempDir()
	good := writeTrajectory(t, dir, "good.json", []benchEntry{{Name: "X", NsPerOp: 1}})
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{good}, &buf); err == nil {
		t.Fatal("one positional argument should be rejected")
	}
	if err := run([]string{good, filepath.Join(dir, "missing.json")}, &buf); err == nil {
		t.Fatal("missing file should be rejected")
	}
	if err := run([]string{good, empty}, &buf); err == nil {
		t.Fatal("empty trajectory should be rejected")
	}
}

// TestAgainstRealTrajectories smoke-diffs the repository's committed
// BENCH points, so the tool keeps parsing whatever the writer emits.
func TestAgainstRealTrajectories(t *testing.T) {
	matches, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil || len(matches) < 2 {
		t.Skipf("need two committed BENCH files, have %d", len(matches))
	}
	var buf bytes.Buffer
	if err := run([]string{matches[0], matches[len(matches)-1]}, &buf); err != nil {
		t.Fatalf("diffing committed trajectories: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "benchmark") {
		t.Fatalf("no table rendered:\n%s", buf.String())
	}
}
