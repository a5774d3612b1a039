package main

import (
	"fmt"
	"math"
	"sort"
)

// summary describes one set of timing samples. Every timing the
// benchmark prints carries its sample count, so a reader can tell a
// median of 4 passes from a median of 900 queries.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
	// TailP is the highest conventional percentile that still has at
	// least ten samples beyond it (0 below 20 samples, where only the
	// median is reported), and Tail its value.
	TailP float64 `json:"tail_p,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
}

// tailLadder lists the percentiles a tail may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile returns the highest ladder percentile with at least
// minBeyond of n samples beyond it, or 0 when even the median has fewer.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		// The epsilon keeps 100 * (1 - 0.9) = 9.999... from missing p90.
		if float64(n)*(1-p/100) >= minBeyond-1e-9 {
			best = p
		}
	}
	return best
}

// quantile interpolates linearly between the order statistics of an
// ascending sample (the "type 7" rule of R and numpy).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// summarize computes the summary of samples; the input is not modified.
func summarize(samples []float64) summary {
	if len(samples) == 0 {
		return summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := summary{
		N: len(s), Min: s[0], Max: s[len(s)-1],
		Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75),
	}
	if p := tailPercentile(len(s)); p > 0 {
		out.TailP = p
		out.Tail = quantile(s, p/100)
	}
	return out
}

// String renders the summary for the human-readable report.
func (s summary) String() string {
	if s.N == 0 {
		return "n=0"
	}
	out := fmt.Sprintf("n=%d median=%.4g q1=%.4g q3=%.4g min=%.4g max=%.4g",
		s.N, s.Median, s.Q1, s.Q3, s.Min, s.Max)
	if s.TailP > 0 {
		out += fmt.Sprintf(" p%g=%.4g", s.TailP, s.Tail)
	}
	return out
}
