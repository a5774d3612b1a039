package stats

import (
	"math"
	"testing"
	"time"
)

func TestStdDev(t *testing.T) {
	if !math.IsNaN(StdDev(nil)) {
		t.Fatal("StdDev(nil) should be NaN")
	}
	if got := StdDev([]float64{7}); got != 0 {
		t.Fatalf("StdDev of one sample = %v, want 0", got)
	}
	// {2, 4, 4, 4, 5, 5, 7, 9}: population variance 4, sample variance 32/7.
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("StdDev = %v, want %v", got, want)
	}
}

func TestTCritical95(t *testing.T) {
	if !math.IsNaN(TCritical95(0)) {
		t.Fatal("df=0 should be NaN")
	}
	if got := TCritical95(1); got != 12.706 {
		t.Fatalf("df=1 = %v", got)
	}
	if got := TCritical95(4); got != 2.776 {
		t.Fatalf("df=4 = %v", got)
	}
	if got := TCritical95(30); got != 2.042 {
		t.Fatalf("df=30 = %v", got)
	}
	if got := TCritical95(1000); got != 1.960 {
		t.Fatalf("large df = %v, want normal 1.960", got)
	}
	// Critical values must decrease toward the normal limit.
	prev := math.Inf(1)
	for df := 1; df <= 40; df++ {
		c := TCritical95(df)
		if c > prev {
			t.Fatalf("t-critical increased at df=%d: %v > %v", df, c, prev)
		}
		prev = c
	}
}

func TestCI95Half(t *testing.T) {
	if !math.IsNaN(CI95Half([]float64{5})) {
		t.Fatal("single sample has no CI")
	}
	// n=4, s=2: half = t(3) * 2 / 2 = 3.182.
	vals := []float64{1, 3, 5, 7} // mean 4, sample var 20/3... use explicit calc
	want := TCritical95(3) * StdDev(vals) / 2
	if got := CI95Half(vals); math.Abs(got-want) > 1e-12 {
		t.Fatalf("CI95Half = %v, want %v", got, want)
	}
	// Identical samples: zero-width interval.
	if got := CI95Half([]float64{3, 3, 3}); got != 0 {
		t.Fatalf("identical samples CI = %v, want 0", got)
	}
}

func mkSeries(name string, vals ...float64) *Series {
	s := &Series{Name: name}
	for i, v := range vals {
		s.MustAdd(time.Duration(i)*time.Minute, v)
	}
	return s
}

func TestAggregateAligned(t *testing.T) {
	agg, err := AggregateAligned("curve", []*Series{
		mkSeries("r0", 10, 20, 30),
		mkSeries("r1", 12, 18, 30),
		mkSeries("r2", 14, 22, 30),
	})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Len() != 3 {
		t.Fatalf("aggregate has %d points", agg.Len())
	}
	p0 := agg.Points[0]
	if p0.Mean != 12 || p0.N != 3 || p0.Min != 10 || p0.Max != 14 {
		t.Fatalf("point 0 = %+v", p0)
	}
	if math.Abs(p0.Std-2) > 1e-12 {
		t.Fatalf("point 0 std = %v, want 2", p0.Std)
	}
	wantCI := TCritical95(2) * 2 / math.Sqrt(3)
	if math.Abs(p0.CI95-wantCI) > 1e-12 {
		t.Fatalf("point 0 CI = %v, want %v", p0.CI95, wantCI)
	}
	// Identical values across runs: zero spread.
	p2 := agg.Points[2]
	if p2.Std != 0 || p2.CI95 != 0 {
		t.Fatalf("point 2 spread = %+v, want zero", p2)
	}
}

func TestAggregateAlignedErrors(t *testing.T) {
	if _, err := AggregateAligned("x", nil); err == nil {
		t.Fatal("zero series must fail")
	}
	if _, err := AggregateAligned("x", []*Series{mkSeries("a", 1, 2), mkSeries("b", 1)}); err == nil {
		t.Fatal("length mismatch must fail")
	}
	a := mkSeries("a", 1, 2)
	b := &Series{Name: "b"}
	b.MustAdd(0, 1)
	b.MustAdd(90*time.Second, 2) // same length, different instant
	if _, err := AggregateAligned("x", []*Series{a, b}); err == nil {
		t.Fatal("time mismatch must fail")
	}
}
