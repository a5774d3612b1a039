package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunTinySimulation(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-size", "25", "-k", "4", "-bits", "64",
		"-setup-mins", "5", "-stabilize-mins", "10", "-churn-mins", "10",
		"-interval-mins", "10", "-c", "0.2",
		"-snapshots", dir, "-quiet", "-chart=false",
	})
	if err != nil {
		t.Fatal(err)
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
	})
	if err == nil || !strings.Contains(err.Error(), "snapshot persistence") {
		t.Fatalf("err = %v, want a snapshot persistence failure", err)
	}
}

func TestRunWithChurnAndLoss(t *testing.T) {
	err := run([]string{
		"-size", "20", "-k", "4", "-bits", "64", "-churn", "1/1", "-loss", "low",
		"-traffic", "-setup-mins", "5", "-stabilize-mins", "5", "-churn-mins", "5",
		"-interval-mins", "5", "-c", "0.2", "-quiet", "-chart=false",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	tests := [][]string{
		{"-loss", "catastrophic"},
		{"-churn", "banana"},
		{"-size", "1"},
		{"-bits", "33"},
	}
	for _, args := range tests {
		if err := run(append(args, "-quiet", "-chart=false")); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}
