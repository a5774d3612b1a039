package report

import (
	"fmt"
	"io"

	"kadre/internal/stats"
	"kadre/internal/sweep"
)

// Attack-experiment rendering: degradation curves plot resilience
// *against nodes removed* rather than against time, which is the x-axis
// an adversary cares about — how much damage does each kill buy.

// DegradationChart writes one degradation curve per set over the attack
// window: the cross-run mean of the aggregate curve picks (rs.Min, or
// rs.SCC — the coarser signal that keeps moving after kappa hits zero)
// against the mean number of nodes removed at each snapshot instant.
func DegradationChart(w io.Writer, title string, sets []*sweep.RunSet, curve func(*sweep.RunSet) *stats.AggregateSeries) error {
	layers := make([]chartLayer, len(sets))
	for i, rs := range sets {
		l := chartLayer{name: rs.Config.Name}
		start := rs.Config.WithDefaults().ChurnStart()
		for j, p := range curve(rs).Points {
			if p.T >= start { // pre-attack points all sit at removed = 0
				l.add(rs.Removed.Points[j].Mean, p)
			}
		}
		layers[i] = l
	}
	return renderChart(w, title, layers, replicated(sets...), "removed")
}

// disconnectAt returns the first snapshot time (in minutes, as a string)
// at which some run's sampled minimum connectivity was zero, or "-" if
// the network stayed connected throughout every run.
func disconnectAt(rs *sweep.RunSet) string {
	for i, p := range rs.Min.Points {
		if p.Min == 0 && rs.Size.Points[i].Min > 1 {
			return fmt.Sprintf("%.0f", p.T.Minutes())
		}
	}
	return "-"
}

// AttackTable writes the attack summary, one configuration per row: how
// much the adversary removed, what survived (cross-run means), and when,
// if ever, the network first disconnected.
func AttackTable(w io.Writer, title string, sets []*sweep.RunSet) error {
	header := []string{"Run", "Attack", "Removed", "MeanMinConn", "ci95", "FinalMin", "FinalSCC", "reps", "Disconn(min)"}
	var rows [][]string
	for _, rs := range sets {
		means := rs.ChurnWindowMeans()
		removed := make([]float64, len(rs.Reps))
		for i, r := range rs.Reps {
			removed[i] = float64(r.AttackRemoved)
		}
		var finalMin, finalSCC float64
		if n := rs.Min.Len(); n > 0 {
			finalMin, finalSCC = rs.Min.Points[n-1].Mean, rs.SCC.Points[n-1].Mean
		}
		rows = append(rows, []string{
			rs.Config.Name,
			string(rs.Config.Attack.Strategy),
			fmt.Sprintf("%.1f", stats.Mean(removed)),
			fmt.Sprintf("%.2f", stats.Mean(means)),
			ci(stats.CI95Half(means)),
			fmt.Sprintf("%.2f", finalMin),
			fmt.Sprintf("%.3f", finalSCC),
			fmt.Sprintf("%d", len(rs.Reps)),
			disconnectAt(rs),
		})
	}
	return writeTitled(w, title, " (cross-replication means)", header, rows, sets...)
}
