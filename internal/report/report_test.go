package report

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"kadre/internal/scenario"
	"kadre/internal/stats"
	"kadre/internal/sweep"
	"kadre/internal/workload"
)

func TestWriteTableAlignment(t *testing.T) {
	var buf bytes.Buffer
	err := writeTable(&buf, []string{"A", "LongHeader"}, [][]string{
		{"x", "1"},
		{"longer", "2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "A ") || !strings.Contains(lines[0], "LongHeader") {
		t.Fatalf("header line %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Fatalf("separator line %q", lines[1])
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	wantTable(t, func(b *bytes.Buffer) error { return Table1(b, "Table 1") },
		"Table 1", "Loss l Ploss(1-way) Ploss(2-way)",
		"none 0.0% 0%",
		"low 2.5% 5%",
		"medium 13.4% 25%",
		"high 29.3% 50%")
}

func fakeResult(name string, size, k int, rate workload.ChurnRate, mins []int) *scenario.Result {
	cfg := scenario.Config{
		Name: name, Size: size, K: k, Churn: rate,
		Setup: 30 * time.Minute, Stabilize: 90 * time.Minute,
		ChurnPhase:       time.Duration(len(mins)*10) * time.Minute,
		SnapshotInterval: 10 * time.Minute,
	}
	r := &scenario.Result{Config: cfg}
	at := cfg.ChurnStart()
	for _, m := range mins {
		r.Points = append(r.Points, scenario.SnapshotStat{Time: at, N: size, Min: m, Avg: float64(2 * m)})
		at += 10 * time.Minute
	}
	return r
}

// fakeSet wraps fabricated replications in a RunSet and builds the
// aggregates the sweep engine would.
func fakeSet(t *testing.T, reps ...*scenario.Result) *sweep.RunSet {
	t.Helper()
	rs := &sweep.RunSet{Config: reps[0].Config, Reps: reps}
	if err := rs.Aggregate(); err != nil {
		t.Fatal(err)
	}
	return rs
}

// parseTable splits a titled table as the renderers write it: the title
// line, the header cells, and the cells of every row below the rule.
func parseTable(t *testing.T, out string) (title string, header []string, rows [][]string) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 3 || !strings.HasPrefix(lines[2], "---") {
		t.Fatalf("not a titled table:\n%s", out)
	}
	for _, l := range lines[3:] {
		rows = append(rows, strings.Fields(l))
	}
	return lines[0], strings.Fields(lines[1]), rows
}

// wantTable renders through write and compares title, header and rows.
func wantTable(t *testing.T, write func(*bytes.Buffer) error, title, header string, rows ...string) {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	gotTitle, gotHeader, gotRows := parseTable(t, buf.String())
	if gotTitle != title {
		t.Errorf("title %q, want %q", gotTitle, title)
	}
	if got := strings.Join(gotHeader, " "); got != header {
		t.Errorf("header %q, want %q", got, header)
	}
	if len(gotRows) != len(rows) {
		t.Fatalf("%d rows, want %d:\n%s", len(gotRows), len(rows), buf.String())
	}
	for i, want := range rows {
		if got := strings.Join(gotRows[i], " "); got != want {
			t.Errorf("row %d = %q, want %q", i, got, want)
		}
	}
}

// Every table is checked over the same pair of inputs: at one rep each
// cell is the rep's own value and nothing that needs a second run shows;
// at two reps the means, the CI and the rep count do.
func TestTable2Rows(t *testing.T) {
	simE := fakeResult("SimE/k=5", 250, 5, workload.Churn1_1, []int{4, 4, 2})   // mean 3.33, RV 0.27
	simE2 := fakeResult("SimE/k=5", 250, 5, workload.Churn1_1, []int{2, 2, 2})  // mean 2, RV 0
	simG := fakeResult("SimG/k=5", 250, 5, workload.Churn10_10, []int{2, 1, 0}) // mean 1, RV 0.67
	if sum := simE.ChurnWindowSummary(); fmt.Sprintf("%.2f %.2f", sum.Mean, sum.RV) != "3.33 0.27" {
		t.Fatalf("fixture summary %+v", sum)
	}
	wantTable(t, func(b *bytes.Buffer) error {
		return Table2(b, "Table 2: mean (±95% CI) and RV", []*sweep.RunSet{fakeSet(t, simE), fakeSet(t, simG)})
	}, "Table 2: mean and RV", "Size k Churn Mean RV",
		"250 5 1/1 3.33 0.27",
		"250 5 10/10 1.00 0.67")
	wantTable(t, func(b *bytes.Buffer) error {
		return Table2(b, "Table 2: mean (±95% CI) and RV", []*sweep.RunSet{fakeSet(t, simE, simE2), fakeSet(t, simG, simG)})
	}, "Table 2: mean (±95% CI) and RV", "Size k Churn Mean ci95 RV reps",
		"250 5 1/1 2.67 ±8.47 0.13 2",
		"250 5 10/10 1.00 ±0.00 0.67 2")
}

func TestMeansByK(t *testing.T) {
	const name = "F10/small/churn1/1-a3/k=10"
	a := fakeResult(name, 100, 10, workload.Churn1_1, []int{9, 11})
	b := fakeResult(name, 100, 10, workload.Churn1_1, []int{7, 9})
	// Alpha defaults to 3 when unset.
	wantTable(t, func(buf *bytes.Buffer) error {
		return MeansByK(buf, "Figure 10", []*sweep.RunSet{fakeSet(t, a)})
	}, "Figure 10", "Run k alpha Churn MeanMinConn",
		name+" 10 3 1/1 10.00")
	wantTable(t, func(buf *bytes.Buffer) error {
		return MeansByK(buf, "Figure 10", []*sweep.RunSet{fakeSet(t, a, b)})
	}, "Figure 10", "Run k alpha Churn MeanMinConn ci95 reps",
		name+" 10 3 1/1 9.00 ±12.71 2")
}

func TestSnapshotRows(t *testing.T) {
	a := fakeResult("x", 50, 5, workload.ChurnRate{}, []int{3, 4})
	b := fakeResult("x", 50, 5, workload.ChurnRate{}, []int{5, 4})
	wantTable(t, func(buf *bytes.Buffer) error { return SnapshotTable(buf, fakeSet(t, a)) },
		"x", "t(min) n minConn avgConn",
		"120 50.0 3.00 6.00",
		"130 50.0 4.00 8.00")
	wantTable(t, func(buf *bytes.Buffer) error { return SnapshotTable(buf, fakeSet(t, a, b)) },
		"x (2 reps)", "t(min) n minConn ci95 avgConn ci95 reps",
		"120 50.0 4.00 ±12.71 8.00 ±25.41 2",
		"130 50.0 4.00 ±0.00 8.00 ±0.00 2")
}

func minCurve(rs *sweep.RunSet) *stats.AggregateSeries { return rs.Min }

// plotArea returns a chart's grid cells only: no title, axis or legend.
func plotArea(out string) string {
	var b strings.Builder
	for _, l := range strings.Split(out, "\n") {
		if _, cells, ok := strings.Cut(l, " |"); ok {
			b.WriteString(cells + "\n")
		}
	}
	return b.String()
}

func TestChart(t *testing.T) {
	a := fakeResult("k=20", 50, 20, workload.ChurnRate{}, []int{0, 2, 4, 6, 8, 10})
	b := fakeResult("k=20", 50, 20, workload.ChurnRate{}, []int{0, 4, 8, 12, 16, 20})
	for _, tc := range []struct {
		name       string
		set        *sweep.RunSet
		replicated bool
	}{
		{"one rep", fakeSet(t, a), false},
		{"two reps", fakeSet(t, a, b), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Chart(&buf, "demo chart", []*sweep.RunSet{tc.set}, minCurve); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if !strings.Contains(out, "demo chart") || !strings.Contains(out, "* k=20/min") {
				t.Fatalf("chart output missing pieces:\n%s", out)
			}
			if !strings.Contains(plotArea(out), "*") {
				t.Fatal("chart has no data glyphs")
			}
			for _, note := range []string{"demo chart (mean of reps)\n", "k=20/min (. = 95% CI)\n"} {
				if strings.Contains(out, note) != tc.replicated {
					t.Errorf("note %q present = %v, want %v:\n%s", note, !tc.replicated, tc.replicated, out)
				}
			}
			if strings.Contains(plotArea(out), ".") != tc.replicated {
				t.Errorf("CI band drawn = %v, want %v:\n%s", !tc.replicated, tc.replicated, out)
			}
		})
	}
}

func TestChartEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := Chart(&buf, "empty", nil, minCurve); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "(no data)") {
		t.Fatal("empty chart should say so")
	}
}

func TestChartMultiSeriesGlyphs(t *testing.T) {
	sets := []*sweep.RunSet{
		fakeSet(t, fakeResult("a", 50, 5, workload.ChurnRate{}, []int{1, 5})),
		fakeSet(t, fakeResult("b", 50, 5, workload.ChurnRate{}, []int{10, 2})),
	}
	var buf bytes.Buffer
	if err := Chart(&buf, "two", sets, minCurve); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "* a/min") || !strings.Contains(out, "o b/min") {
		t.Fatalf("expected two glyph kinds:\n%s", out)
	}
}

// sweepTiny runs one small replicated sweep shared by the tests below.
func sweepTiny(t *testing.T, reps int) []*sweep.RunSet {
	t.Helper()
	cfg := scenario.Config{
		Name: "SimT/k=5", Seed: 2, Size: 20, K: 5, Staleness: 1,
		Setup: 6 * time.Minute, Stabilize: 12 * time.Minute,
		SnapshotInterval: 6 * time.Minute, SampleFraction: 0.1,
	}
	sets, err := sweep.Run([]scenario.Config{cfg}, sweep.Options{Reps: reps, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	return sets
}

func TestAggregateSnapshotRows(t *testing.T) {
	sets := sweepTiny(t, 3)
	var buf bytes.Buffer
	if err := SnapshotTable(&buf, sets[0]); err != nil {
		t.Fatal(err)
	}
	title, header, rows := parseTable(t, buf.String())
	if title != "SimT/k=5 (3 reps)" || len(header) != 7 || header[3] != "ci95" {
		t.Fatalf("title %q header %v", title, header)
	}
	if len(rows) != sets[0].Min.Len() {
		t.Fatalf("%d rows for %d aggregate points", len(rows), sets[0].Min.Len())
	}
	for _, row := range rows {
		if len(row) != len(header) {
			t.Fatalf("row width %d != header width %d", len(row), len(header))
		}
		if row[6] != "3" {
			t.Fatalf("reps column = %q, want 3", row[6])
		}
		if !strings.HasPrefix(row[3], "±") {
			t.Fatalf("CI cell %q not rendered as ±x.xx", row[3])
		}
	}
}

func TestTable2RepsAndMeansByKReps(t *testing.T) {
	sets := sweepTiny(t, 2)
	var buf bytes.Buffer
	if err := Table2(&buf, "T2", sets); err != nil {
		t.Fatal(err)
	}
	_, header, rows := parseTable(t, buf.String())
	if header[4] != "ci95" || len(rows) != 1 {
		t.Fatalf("Table2 header %v rows %d", header, len(rows))
	}
	if rows[0][1] != "5" || rows[0][6] != "2" {
		t.Fatalf("Table2 row = %v", rows[0])
	}

	buf.Reset()
	if err := MeansByK(&buf, "F10", sets); err != nil {
		t.Fatal(err)
	}
	_, header, rows = parseTable(t, buf.String())
	if header[5] != "ci95" || len(rows) != 1 {
		t.Fatalf("MeansByK header %v rows %d", header, len(rows))
	}
	if rows[0][0] != "SimT/k=5" || rows[0][2] != "3" {
		t.Fatalf("MeansByK row = %v (alpha should default to 3)", rows[0])
	}
}

func TestAggChart(t *testing.T) {
	sets := sweepTiny(t, 3)
	var buf bytes.Buffer
	if err := Chart(&buf, "test chart", sets, minCurve); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "test chart (mean of reps)") {
		t.Fatal("chart missing title")
	}
	if !strings.Contains(out, "*") {
		t.Fatal("chart missing mean glyphs")
	}
	if !strings.Contains(out, "(. = 95% CI)") {
		t.Fatal("chart legend missing CI note")
	}
}

// Replications that captured no snapshot still aggregate, to nothing.
func TestAggChartEmpty(t *testing.T) {
	none := fakeResult("none", 50, 5, workload.ChurnRate{}, nil)
	var buf bytes.Buffer
	if err := Chart(&buf, "empty", []*sweep.RunSet{fakeSet(t, none, none)}, minCurve); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "(no data)") {
		t.Fatalf("empty chart output: %q", buf.String())
	}
}
