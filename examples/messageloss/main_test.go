package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenOutput pins the example's stdout at -size 24 -observe-mins 30 byte for byte.
// Regenerate with: go test ./examples/messageloss -update
func TestGoldenOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full simulation; only quickstart runs under -short")
	}
	var buf bytes.Buffer
	if err := run([]string{"-size", "24", "-observe-mins", "30"}, &buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "messageloss.golden")
	if *update {
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
