package report

import (
	"fmt"
	"io"
	"math"
	"strings"

	"kadre/internal/stats"
	"kadre/internal/sweep"
)

// The ASCII chart frame shared by Chart (curves over time) and
// DegradationChart (curves over nodes removed): range computation, grid
// layout, axes, and legend live here so the two chart styles cannot
// drift apart.

const (
	chartWidth  = 72
	chartHeight = 14
)

var chartGlyphs = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// chartXY is one plotted mark.
type chartXY struct{ t, v float64 }

// chartBand is one vertical confidence interval at an instant.
type chartBand struct{ t, lo, hi float64 }

// chartLayer is one curve: its glyph marks and the optional bands drawn
// beneath them.
type chartLayer struct {
	name   string
	points []chartXY
	bands  []chartBand
}

// Chart writes one curve per set as an ASCII line chart over virtual
// time, the terminal stand-in for the paper's figures; curve picks which
// of a set's aggregates is plotted (rs.Min, rs.Avg, ...). Each curve's
// cross-run mean is drawn with its own glyph, which the legend maps to the
// aggregate's name; replicated sets also get their 95% confidence band
// shaded with dots, so the spread is visible next to the mean trend.
func Chart(w io.Writer, title string, sets []*sweep.RunSet, curve func(*sweep.RunSet) *stats.AggregateSeries) error {
	layers := make([]chartLayer, len(sets))
	for i, rs := range sets {
		agg := curve(rs)
		l := chartLayer{name: agg.Name}
		for _, p := range agg.Points {
			l.add(p.T.Minutes(), p)
		}
		layers[i] = l
	}
	return renderChart(w, title, layers, replicated(sets...), "min")
}

// add plots the aggregate p at x: its mean, and its confidence band where
// one is defined and not degenerate.
func (l *chartLayer) add(x float64, p stats.AggregatePoint) {
	l.points = append(l.points, chartXY{t: x, v: p.Mean})
	if !math.IsNaN(p.CI95) && p.CI95 != 0 {
		l.bands = append(l.bands, chartBand{t: x, lo: math.Max(p.Mean-p.CI95, 0), hi: p.Mean + p.CI95})
	}
}

// renderChart draws the layers onto a fixed-size grid: bands first (as
// dots), then each layer's marks with its glyph, then axes and legend.
// xUnit labels the right end of the x axis ("min" for time charts,
// "removed" for attack-degradation charts). A replicated chart says so in
// its title and explains the band in every legend line.
func renderChart(w io.Writer, title string, layers []chartLayer, replicated bool, xUnit string) error {
	legend := ""
	if replicated {
		title += " (mean of reps)"
		legend = " (. = 95% CI)"
	}

	minT, maxT := math.Inf(1), math.Inf(-1)
	maxV := math.Inf(-1)
	any := false
	for _, l := range layers {
		for _, p := range l.points {
			any = true
			minT = math.Min(minT, p.t)
			maxT = math.Max(maxT, p.t)
			maxV = math.Max(maxV, p.v)
		}
		for _, b := range l.bands {
			maxV = math.Max(maxV, b.hi)
		}
	}
	if !any {
		_, err := fmt.Fprintf(w, "%s\n  (no data)\n", title)
		return err
	}
	if maxV <= 0 {
		maxV = 1
	}
	if maxT <= minT {
		maxT = minT + 1
	}

	grid := make([][]byte, chartHeight)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", chartWidth))
	}
	cell := func(t, v float64) (row, col int) {
		col = int((t - minT) / (maxT - minT) * float64(chartWidth-1))
		y := int(v / maxV * float64(chartHeight-1))
		return chartHeight - 1 - y, col
	}
	for _, l := range layers {
		for _, b := range l.bands {
			loRow, col := cell(b.t, b.lo)
			hiRow, _ := cell(b.t, b.hi)
			for r := hiRow; r <= loRow; r++ {
				if r >= 0 && r < chartHeight && col >= 0 && col < chartWidth {
					grid[r][col] = '.'
				}
			}
		}
	}
	for li, l := range layers {
		g := chartGlyphs[li%len(chartGlyphs)]
		for _, p := range l.points {
			row, col := cell(p.t, p.v)
			if row >= 0 && row < chartHeight && col >= 0 && col < chartWidth {
				grid[row][col] = g
			}
		}
	}

	if _, err := fmt.Fprintln(w, title); err != nil {
		return err
	}
	for i, row := range grid {
		val := maxV * float64(chartHeight-1-i) / float64(chartHeight-1)
		if _, err := fmt.Fprintf(w, "%7.1f |%s\n", val, string(row)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "        +%s\n", strings.Repeat("-", chartWidth)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "         %-8.0f%*s\n", minT, chartWidth-8, fmt.Sprintf("%.0f %s", maxT, xUnit)); err != nil {
		return err
	}
	for li, l := range layers {
		if _, err := fmt.Fprintf(w, "  %c %s%s\n", chartGlyphs[li%len(chartGlyphs)], l.name, legend); err != nil {
			return err
		}
	}
	return nil
}
