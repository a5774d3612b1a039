package scenario_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"kadre/internal/scenario"
	"kadre/internal/sweep"
)

// TestCatalogueMatchesFixture pins every catalogue experiment at every
// scale and two base seeds: the id and title, and each run's name and
// sweep.Key (its effective configuration plus seed: every config field
// that shapes a measurement), so runs two experiments share show the
// same key. The fixture was first written by the Go experiment builders
// the spec files under specs/ replaced, so it holds the embedded
// catalogue to exactly the runs those builders produced. Regenerate
// with: go test ./internal/scenario -run Catalogue -update
//
// Every catalogue config must already be keyed as it executes: its key
// equals its effective config's, and WithDefaults is a fixed point on the
// effective config. The 102 runs of a catalogue are 92 distinct
// simulations, because figure6's four Sim E runs are also table2's and
// figure10's small churn-1/1 alpha-3 series, figure9's SimH/k=20 is
// figure11's SimI/churn10/10/s=1, and figure5's SimD/k=20 is bitlength's
// S57/large/b=160.
func TestCatalogueMatchesFixture(t *testing.T) {
	var buf bytes.Buffer
	for _, s := range []scenario.Scale{scenario.PaperScale, scenario.ReducedScale, scenario.TinyScale} {
		for _, seed := range []int64{1, 7} {
			exps, err := s.Experiments(seed)
			if err != nil {
				t.Fatal(err)
			}
			keys := make(map[string]string) // "<exp> <run>" -> key
			for _, e := range exps {
				fmt.Fprintf(&buf, "%s seed=%d %s: %s\n", s.Name, seed, e.ID, e.Title)
				for _, cfg := range e.Configs {
					key, eff := sweep.Key(cfg), cfg.WithDefaults()
					fmt.Fprintf(&buf, "\t%s %s\n", cfg.Name, key)
					if sweep.Key(eff) != key {
						t.Errorf("%s seed=%d %s: key %s, effective config's %s", s.Name, seed, cfg.Name, key, sweep.Key(eff))
					}
					if !reflect.DeepEqual(eff.WithDefaults(), eff) {
						t.Errorf("%s seed=%d %s: WithDefaults is not a fixed point", s.Name, seed, cfg.Name)
					}
					keys[e.ID+" "+cfg.Name] = key
				}
			}
			distinct := make(map[string]bool)
			for _, k := range keys {
				distinct[k] = true
			}
			if len(keys) != 102 || len(distinct) != 92 {
				t.Errorf("%s seed=%d: %d distinct keys for %d runs, want 92 for 102", s.Name, seed, len(distinct), len(keys))
			}
			for _, pair := range [][2]string{
				{"figure6 SimE/k=5", "figure10 F10/small/churn1/1-a3/k=5"},
				{"figure6 SimE/k=10", "figure10 F10/small/churn1/1-a3/k=10"},
				{"figure6 SimE/k=20", "figure10 F10/small/churn1/1-a3/k=20"},
				{"figure6 SimE/k=30", "figure10 F10/small/churn1/1-a3/k=30"},
				{"figure5 SimD/k=20", "bitlength S57/large/b=160"},
			} {
				if a, b := keys[pair[0]], keys[pair[1]]; a == "" || a != b {
					t.Errorf("%s seed=%d: %s and %s do not share a run:\n %s\n %s", s.Name, seed, pair[0], pair[1], a, b)
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
