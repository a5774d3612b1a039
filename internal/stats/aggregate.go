package stats

import (
	"fmt"
	"math"
	"time"
)

// StdDev returns the sample standard deviation (n-1 denominator), the
// spread estimator used for confidence intervals over repeated seeded
// runs. It returns NaN for an empty input and 0 for a single sample.
func StdDev(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return 0
	}
	m := Mean(values)
	var sum float64
	for _, v := range values {
		d := v - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(n-1))
}

// tCritical95 is the two-sided 95% Student-t critical value for df degrees
// of freedom, the multiplier behind small-sample confidence intervals
// (repeated-run counts in the paper's methodology are small, so the normal
// 1.96 would understate the interval).
var tCritical95 = []float64{
	// df: 1 .. 30
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCritical95 returns the two-sided 95% Student-t critical value for df
// degrees of freedom (df >= 31 falls back to the normal 1.960; df <= 0
// returns NaN, as no interval exists from a single sample).
func TCritical95(df int) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if df <= len(tCritical95) {
		return tCritical95[df-1]
	}
	return 1.960
}

// CI95Half returns the half-width of the two-sided 95% Student-t
// confidence interval of the mean: t(df) * s / sqrt(n). A single sample
// has no spread estimate and yields NaN; callers typically render that as
// an empty interval.
func CI95Half(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return math.NaN()
	}
	return TCritical95(n-1) * StdDev(values) / math.Sqrt(float64(n))
}

// AggregatePoint is one virtual-time instant aggregated across repeated
// runs: the cross-run mean, sample standard deviation, and 95% CI
// half-width of the measured value, plus the per-run extremes.
type AggregatePoint struct {
	T    time.Duration
	N    int     // runs aggregated at this instant
	Mean float64 // cross-run mean
	Std  float64 // cross-run sample standard deviation
	CI95 float64 // half-width of the 95% Student-t CI of the mean
	Min  float64 // smallest per-run value
	Max  float64 // largest per-run value
}

// AggregateSeries is a time-ordered sequence of cross-run aggregates: one
// curve of a figure averaged over its seed replications.
type AggregateSeries struct {
	Name   string
	Points []AggregatePoint
}

// Len returns the number of aggregated samples.
func (a *AggregateSeries) Len() int { return len(a.Points) }

// AggregateAligned collapses repeated runs of the same configuration into
// one aggregated curve. Every input series must sample the same virtual
// times in the same order (which holds by construction for seed
// replications of one scenario config: the snapshot schedule depends only
// on the config); mismatched lengths or times are an error, as silently
// aggregating misaligned runs would fabricate data.
func AggregateAligned(name string, series []*Series) (*AggregateSeries, error) {
	if len(series) == 0 {
		return nil, fmt.Errorf("stats: aggregate of zero series")
	}
	base := series[0]
	for _, s := range series[1:] {
		if s.Len() != base.Len() {
			return nil, fmt.Errorf("stats: series %q has %d points, %q has %d — replications misaligned",
				s.Name, s.Len(), base.Name, base.Len())
		}
		for i, p := range s.Points {
			if p.T != base.Points[i].T {
				return nil, fmt.Errorf("stats: series %q samples %v at index %d where %q samples %v",
					s.Name, p.T, i, base.Name, base.Points[i].T)
			}
		}
	}
	out := &AggregateSeries{Name: name, Points: make([]AggregatePoint, base.Len())}
	values := make([]float64, len(series))
	for i := range base.Points {
		for j, s := range series {
			values[j] = s.Points[i].Value
		}
		out.Points[i] = AggregatePoint{
			T:    base.Points[i].T,
			N:    len(values),
			Mean: Mean(values),
			Std:  StdDev(values),
			CI95: CI95Half(values),
			Min:  Min(values),
			Max:  Max(values),
		}
	}
	return out, nil
}
