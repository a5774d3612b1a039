package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestSummarizeCanned(t *testing.T) {
	// Unsorted on purpose; summarize must not reorder its input.
	in := []float64{9, 1, 7, 3, 5}
	s := summarize(in)
	if s.N != 5 || s.Min != 1 || s.Max != 9 || s.Median != 5 || s.Q1 != 3 || s.Q3 != 7 {
		t.Fatalf("summary of %v = %+v", in, s)
	}
	if in[0] != 9 || in[4] != 5 {
		t.Fatalf("summarize reordered its input: %v", in)
	}
	if s.TailP != 0 || s.Tail != 0 {
		t.Fatalf("5 samples must report the median only, got p%g=%g", s.TailP, s.Tail)
	}

	even := summarize([]float64{4, 1, 3, 2})
	if even.Median != 2.5 || even.Q1 != 1.75 || even.Q3 != 3.25 {
		t.Fatalf("even-length summary = %+v", even)
	}
	if got := summarize(nil); got.N != 0 {
		t.Fatalf("empty summary = %+v", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{1, 0}, {19, 0}, // below 20 samples only the median is reported
		{20, 50}, {39, 50},
		{40, 75}, {99, 75},
		{100, 90}, {199, 90},
		{200, 95}, {999, 95},
		{1000, 99}, {9999, 99},
		{10000, 99.9},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if c.want > 0 {
			if beyond := float64(c.n) * (1 - c.want/100); beyond < minBeyond-1e-9 {
				t.Errorf("n=%d: p%g leaves only %g samples beyond", c.n, c.want, beyond)
			}
		}
	}
	s := summarize(seq(200))
	if s.TailP != 95 || math.Abs(s.Tail-190.05) > 1e-9 {
		t.Fatalf("tail of 1..200 = p%g %g, want p95 190.05", s.TailP, s.Tail)
	}
	if got := summarize(seq(19)).String(); got != "n=19 median=10 q1=5.5 q3=14.5 min=1 max=19" {
		t.Fatalf("19 samples render as %q", got)
	}
}
