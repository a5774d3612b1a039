package scenario_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"kadre/internal/scenario"
	"kadre/internal/sweep"
)

// TestCatalogueMatchesFixture pins every catalogue experiment at every
// scale and two base seeds: the id and title, and each run's name, seed
// and sweep fingerprint (every config field that shapes a measurement).
// The fixture was written by the Go experiment builders the spec files
// under specs/ replaced, so it holds the embedded catalogue to exactly
// the runs those builders produced. Regenerate with: go test
// ./internal/scenario -run Catalogue -update
func TestCatalogueMatchesFixture(t *testing.T) {
	var buf bytes.Buffer
	for _, s := range []scenario.Scale{scenario.PaperScale, scenario.ReducedScale, scenario.TinyScale} {
		for _, seed := range []int64{1, 7} {
			exps, err := s.Experiments(seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range exps {
				fmt.Fprintf(&buf, "%s seed=%d %s: %s\n", s.Name, seed, e.ID, e.Title)
				for _, cfg := range e.Configs {
					fmt.Fprintf(&buf, "\t%s seed=%d %s\n", cfg.Name, cfg.Seed, sweep.Fingerprint(cfg))
				}
			}
		}
	}
	golden := filepath.Join("testdata", "catalogue.golden.txt")
	if flag.Lookup("update").Value.String() == "true" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("catalogue drifted from %s:\n--- got ---\n%.3000s", golden, buf.String())
	}
}
