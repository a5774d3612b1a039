package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestRunTinySimulation runs to completion and parses what it printed:
// the run summary, then the snapshot table every sweep renders — one row
// per snapshot, at one rep without CI or rep columns — and no chart.
func TestRunTinySimulation(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	err := run([]string{
		"-size", "25", "-k", "4", "-bits", "64",
		"-setup-mins", "5", "-stabilize-mins", "10", "-churn-mins", "10",
		"-interval-mins", "10", "-c", "0.2",
		"-snapshots", dir, "-quiet", "-chart=false",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(buf.String(), "\n\nkadsim\n")
	if !ok || !strings.Contains(buf.String(), "run complete: 3 snapshots") {
		t.Fatalf("no run summary followed by the titled table:\n%s", buf.String())
	}
	lines := strings.Split(strings.TrimRight(table, "\n"), "\n")
	if got := strings.Join(strings.Fields(lines[0]), " "); got != "t(min) n minConn avgConn" {
		t.Fatalf("table header %q", got)
	}
	times := []string{"10", "20", "25"} // every interval, and the end of the run
	if len(lines) != 2+len(times) {     // header and rule above the rows
		t.Fatalf("table has %d lines, want %d:\n%s", len(lines), 2+len(times), table)
	}
	for i, row := range lines[2:] {
		cells := strings.Fields(row)
		if len(cells) != 4 || cells[0] != times[i] {
			t.Fatalf("row %d = %q", i, row)
		}
		for _, c := range cells[1:] {
			if v, err := strconv.ParseFloat(c, 64); err != nil || v <= 0 {
				t.Fatalf("row %d cell %q is not a positive number", i, c)
			}
		}
	}
	matches, err := filepath.Glob(filepath.Join(dir, "snapshot-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no snapshots written")
	}
	info, err := os.Stat(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Fatal("empty snapshot file")
	}
}

// TestRunPrintsSnapshotLines: without -quiet every snapshot prints one
// progress line before the run summary. The first is pinned byte for
// byte, so the line's format and values cannot drift.
func TestRunPrintsSnapshotLines(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-size", "25", "-k", "4", "-bits", "64",
		"-setup-mins", "5", "-stabilize-mins", "10", "-churn-mins", "10",
		"-interval-mins", "10", "-c", "0.2", "-chart=false",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	progress, _, ok := strings.Cut(buf.String(), "\nrun complete: ")
	if !ok {
		t.Fatalf("no run summary:\n%s", buf.String())
	}
	lines := strings.Split(strings.TrimRight(progress, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d progress lines, want one per snapshot (3):\n%s", len(lines), progress)
	}
	const want = "kadsim t= 10m n=  25 edges=   232 min=  3 avg=   5.6 sym=0.922"
	if lines[0] != want {
		t.Fatalf("first progress line\n%q\nwant\n%q", lines[0], want)
	}
}

// TestRunSnapshotWriteFailure blocks one snapshot file with a directory
// of the same name: the command must fail, not exit 0 with the artefact
// missing.
func TestRunSnapshotWriteFailure(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "snapshot-000010m.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	err := run([]string{
		"-size", "25", "-k", "4", "-bits", "64",
		"-setup-mins", "5", "-stabilize-mins", "10", "-churn-mins", "10",
		"-interval-mins", "10", "-c", "0.2",
		"-snapshots", dir, "-quiet", "-chart=false",
	}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "snapshot persistence") {
		t.Fatalf("err = %v, want a snapshot persistence failure", err)
	}
}

// TestRunWithChurnAndLoss also renders the charts: one curve each, of the
// one-rep set's minimum and average connectivity, with no CI legend.
func TestRunWithChurnAndLoss(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-size", "20", "-k", "4", "-bits", "64", "-churn", "1/1", "-loss", "low",
		"-traffic", "-setup-mins", "5", "-stabilize-mins", "5", "-churn-mins", "5",
		"-interval-mins", "5", "-c", "0.2", "-quiet",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"\nminimum connectivity over time\n", "  * kadsim/min\n",
		"\naverage connectivity over time\n", "  * kadsim/avg\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "ci95") || strings.Contains(out, "95% CI") || strings.Contains(out, "reps") {
		t.Fatalf("one run printed replication notes:\n%s", out)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	tests := []struct {
		args []string
		want string // a fragment the error must name; "" for any error
	}{
		{[]string{"-loss", "catastrophic"}, ""},
		{[]string{"-churn", "banana"}, ""},
		{[]string{"-size", "1"}, ""},
		{[]string{"-bits", "33"}, ""},
		// The spec checker refuses every zero the config layer would
		// replace with a paper default, and a -c outside (0,1], which
		// must not fall through to a full n(n-1) sweep.
		{[]string{"-k", "0"}, "k 0"},
		{[]string{"-alpha", "0"}, "alpha 0"},
		{[]string{"-bits", "0"}, "bits 0"},
		{[]string{"-staleness", "0"}, "staleness 0"},
		{[]string{"-setup-mins", "0"}, "setup_minutes 0"},
		{[]string{"-stabilize-mins", "0"}, "stabilize_minutes 0"},
		{[]string{"-interval-mins", "0"}, "snapshot_minutes 0"},
		{[]string{"-k", "-3"}, "k -3"},
		{[]string{"-c", "0"}, "sample_fraction"},
		{[]string{"-c", "1.5"}, "sample_fraction"},
		{[]string{"-c", "-0.5"}, "sample_fraction"},
		{[]string{"-c", "NaN"}, "sample_fraction"},
	}
	for _, tt := range tests {
		err := run(append(tt.args, "-quiet", "-chart=false"), io.Discard)
		if err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Errorf("args %v: err = %v, want an error naming %q", tt.args, err, tt.want)
		}
	}
}
