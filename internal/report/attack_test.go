package report

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"kadre/internal/attack"
	"kadre/internal/scenario"
	"kadre/internal/stats"
	"kadre/internal/sweep"
)

// falling is the default fabricated min-connectivity series: 8 until the
// attack bites, then 4, then 0 at t=50.
var falling = []int{8, 8, 8, 4, 0}

// fakeAttackResult fabricates a degradation series without running a
// simulation: removed climbs 0,4,8 while min connectivity follows mins.
func fakeAttackResult(name string, strategy attack.Strategy, mins []int) *scenario.Result {
	cfg := scenario.Config{
		Name: name, Seed: 1, Size: 20, K: 8,
		Setup: 10 * time.Minute, Stabilize: 10 * time.Minute,
		ChurnPhase:       30 * time.Minute,
		SnapshotInterval: 10 * time.Minute,
		Attack:           attack.Config{Strategy: strategy, Budget: 8, Kills: 4, Interval: 10 * time.Minute},
	}.WithDefaults()
	r := &scenario.Result{Config: cfg, AttackRemoved: 8}
	for i, min := range mins {
		removed := 0
		if t := time.Duration(i+1) * 10 * time.Minute; t > cfg.ChurnStart() {
			removed = 4 * int((t-cfg.ChurnStart())/(10*time.Minute))
			if removed > cfg.Attack.Budget {
				removed = cfg.Attack.Budget
			}
		}
		r.Points = append(r.Points, scenario.SnapshotStat{
			Time: time.Duration(i+1) * 10 * time.Minute, N: 20 - removed,
			Edges: 100, Min: min, Avg: float64(min) + 1,
			SCC: 1 - float64(removed)/20, Removed: removed,
		})
	}
	return r
}

func TestDegradationChartAxisAndCurves(t *testing.T) {
	degree := fakeAttackResult("Attack/degree", attack.Degree, falling)
	random := fakeAttackResult("Attack/random", attack.Random, falling)
	for _, tc := range []struct {
		name       string
		sets       []*sweep.RunSet
		replicated bool
	}{
		{"one rep", []*sweep.RunSet{fakeSet(t, degree), fakeSet(t, random)}, false},
		{"two reps", []*sweep.RunSet{fakeSet(t, degree, degree), fakeSet(t, random, random)}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for title, curve := range map[string]func(*sweep.RunSet) *stats.AggregateSeries{
				"min": minCurve,
				"scc": func(rs *sweep.RunSet) *stats.AggregateSeries { return rs.SCC },
			} {
				var buf bytes.Buffer
				if err := DegradationChart(&buf, title, tc.sets, curve); err != nil {
					t.Fatal(err)
				}
				out := buf.String()
				if !strings.Contains(out, "8 removed") {
					t.Fatalf("x axis not labeled in removals:\n%s", out)
				}
				for _, name := range []string{"* Attack/degree", "o Attack/random"} {
					if !strings.Contains(out, name) {
						t.Fatalf("legend missing %q:\n%s", name, out)
					}
				}
				for _, note := range []string{title + " (mean of reps)\n", "(. = 95% CI)"} {
					if strings.Contains(out, note) != tc.replicated {
						t.Errorf("note %q present = %v, want %v:\n%s", note, !tc.replicated, tc.replicated, out)
					}
				}
			}
		})
	}
}

func TestAttackTable(t *testing.T) {
	cutset := fakeAttackResult("Attack/cutset", attack.Cutset, falling)
	// Min hits 0 at t=50; the churn-window mean of 8,8,4,0 is 5.
	wantTable(t, func(b *bytes.Buffer) error {
		return AttackTable(b, "Attack summary", []*sweep.RunSet{fakeSet(t, cutset)})
	}, "Attack summary", "Run Attack Removed MeanMinConn FinalMin FinalSCC Disconn(min)",
		"Attack/cutset cutset 8.0 5.00 0.00 0.600 50")
	wantTable(t, func(b *bytes.Buffer) error {
		return AttackTable(b, "Attack summary", []*sweep.RunSet{fakeSet(t, cutset, cutset)})
	}, "Attack summary (cross-replication means)", "Run Attack Removed MeanMinConn ci95 FinalMin FinalSCC reps Disconn(min)",
		"Attack/cutset cutset 8.0 5.00 ±0.00 0.00 0.600 2 50")
}

// Replications that disagree: the summary reports their means, the first
// disconnect of any of them, and the chart shades the spread.
func TestAttackTableRepsAndAggChart(t *testing.T) {
	late := fakeAttackResult("Attack/degree", attack.Degree, falling)
	early := fakeAttackResult("Attack/degree", attack.Degree, []int{8, 8, 4, 0, 0})
	early.AttackRemoved = 6
	sets := []*sweep.RunSet{fakeSet(t, late, early)}
	wantTable(t, func(b *bytes.Buffer) error { return AttackTable(b, "Attack summary", sets) },
		"Attack summary (cross-replication means)", "Run Attack Removed MeanMinConn ci95 FinalMin FinalSCC reps Disconn(min)",
		"Attack/degree degree 7.0 4.00 ±12.71 0.00 0.600 2 40")

	var buf bytes.Buffer
	if err := DegradationChart(&buf, "agg degradation", sets, minCurve); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "8 removed") {
		t.Fatalf("agg chart not on removal axis:\n%s", out)
	}
	if !strings.Contains(plotArea(out), ".") {
		t.Fatalf("no confidence band where the reps differ:\n%s", out)
	}
}
