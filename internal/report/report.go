// Package report renders experiment results the way the paper presents
// them: aligned text tables (Tables 1 and 2, the Figure 10 means) and
// ASCII charts standing in for Figures 2-14.
//
// The paper repeats every simulation and reports means over the runs
// (§5.4), so sweep.RunSet is the only result shape a renderer accepts and
// each artefact has one function. A single run is a one-rep RunSet: it
// prints the same cross-run means (which are then the run's own values)
// in the same formats. What only exists across runs — the ci95 and reps
// columns, the dotted CI band with its legend note, and the "(mean of
// reps)" / "(N reps)" / "(±95% CI)" title notes — appears iff some set in
// the call holds at least two reps, decided here from len(rs.Reps) and
// nowhere else.
package report

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

	"kadre/internal/simnet"
	"kadre/internal/stats"
	"kadre/internal/sweep"
)

// writeTable renders rows as an aligned text table with a header. Cell
// widths are measured in runes, so multi-byte cells (the ± of the CI
// columns) stay aligned.
func writeTable(w io.Writer, header []string, rows [][]string) error {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if n := utf8.RuneCountInString(cell); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - utf8.RuneCountInString(cell); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		return b.String()
	}
	if _, err := fmt.Fprintln(w, line(header)); err != nil {
		return err
	}
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total-2)); err != nil {
		return err
	}
	for _, row := range rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

// Table1 writes the paper's Table 1 (message-loss scenarios).
func Table1(w io.Writer, title string) error {
	header := []string{"Loss l", "Ploss(1-way)", "Ploss(2-way)"}
	var rows [][]string
	for _, l := range simnet.Levels() {
		rows = append(rows, []string{
			l.String(),
			fmt.Sprintf("%.1f%%", l.OneWayLoss()*100),
			fmt.Sprintf("%.0f%%", l.TwoWayLoss()*100),
		})
	}
	return writeTitled(w, title, "", header, rows)
}

// ci renders a 95% confidence-interval half-width.
func ci(half float64) string { return fmt.Sprintf("±%.2f", half) }

// replicated reports whether any set holds the two runs a spread needs.
func replicated(sets ...*sweep.RunSet) bool {
	for _, rs := range sets {
		if len(rs.Reps) >= 2 {
			return true
		}
	}
	return false
}

// ciNote is how a table title announces the ci95 column.
const ciNote = " (±95% CI)"

// writeTitled writes the title line — followed by note when the sets are
// replicated — and the table beneath it. When they are not, what the
// caller wrote for the replicated form goes: the ci95 and reps columns,
// and the title's ciNote.
func writeTitled(w io.Writer, title, note string, header []string, rows [][]string, sets ...*sweep.RunSet) error {
	if replicated(sets...) {
		title += note
	} else {
		title = strings.Replace(title, ciNote, "", 1)
		keep := func(cells []string) []string {
			var out []string
			for i, c := range cells {
				if header[i] != "ci95" && header[i] != "reps" {
					out = append(out, c)
				}
			}
			return out
		}
		for i, row := range rows {
			rows[i] = keep(row)
		}
		header = keep(header)
	}
	if _, err := fmt.Fprintln(w, title); err != nil {
		return err
	}
	return writeTable(w, header, rows)
}

// Table2 writes the paper's Table 2 for the Simulation E-H sets: the
// churn-phase mean minimum connectivity averaged across the runs and the
// mean of the per-run Relative Variances, by size, k and churn rate.
func Table2(w io.Writer, title string, sets []*sweep.RunSet) error {
	header := []string{"Size", "k", "Churn", "Mean", "ci95", "RV", "reps"}
	var rows [][]string
	for _, rs := range sets {
		means := rs.ChurnWindowMeans()
		rvs := make([]float64, len(rs.Reps))
		for i, r := range rs.Reps {
			rvs[i] = r.ChurnWindowSummary().RV
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", rs.Config.Size),
			fmt.Sprintf("%d", rs.Config.K),
			rs.Config.Churn.String(),
			fmt.Sprintf("%.2f", stats.Mean(means)),
			ci(stats.CI95Half(means)),
			fmt.Sprintf("%.2f", stats.Mean(rvs)),
			fmt.Sprintf("%d", len(rs.Reps)),
		})
	}
	return writeTitled(w, title, "", header, rows, sets...)
}

// MeansByK writes the Figure 10-style table: the mean minimum
// connectivity during churn per configuration, keyed by the run name.
func MeansByK(w io.Writer, title string, sets []*sweep.RunSet) error {
	header := []string{"Run", "k", "alpha", "Churn", "MeanMinConn", "ci95", "reps"}
	var rows [][]string
	for _, rs := range sets {
		means := rs.ChurnWindowMeans()
		cfg := rs.Config.WithDefaults()
		rows = append(rows, []string{
			cfg.Name,
			fmt.Sprintf("%d", cfg.K),
			fmt.Sprintf("%d", cfg.Alpha),
			cfg.Churn.String(),
			fmt.Sprintf("%.2f", stats.Mean(means)),
			ci(stats.CI95Half(means)),
			fmt.Sprintf("%d", len(rs.Reps)),
		})
	}
	return writeTitled(w, title, "", header, rows, sets...)
}

// SnapshotTable writes one configuration's measurement series under its
// name: the cross-run mean of the minimum and average connectivity at
// every snapshot instant, alongside the mean live size.
func SnapshotTable(w io.Writer, rs *sweep.RunSet) error {
	header := []string{"t(min)", "n", "minConn", "ci95", "avgConn", "ci95", "reps"}
	var rows [][]string
	for i := range rs.Min.Points {
		mp, ap, sp := rs.Min.Points[i], rs.Avg.Points[i], rs.Size.Points[i]
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", mp.T.Minutes()),
			fmt.Sprintf("%.1f", sp.Mean),
			fmt.Sprintf("%.2f", mp.Mean),
			ci(mp.CI95),
			fmt.Sprintf("%.2f", ap.Mean),
			ci(ap.CI95),
			fmt.Sprintf("%d", mp.N),
		})
	}
	return writeTitled(w, rs.Config.Name, fmt.Sprintf(" (%d reps)", len(rs.Reps)), header, rows, rs)
}
