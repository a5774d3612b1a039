package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// side is every report on one side of a comparison, by workload.
type side struct {
	timed, traced map[string][]*report
}

// loadSide reads a result file, or every result file of a directory: ten
// runs of a commit are compared as one side.
func loadSide(path string) (*side, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	s := &side{timed: map[string][]*report{}, traced: map[string][]*report{}}
	for _, f := range files {
		var rf resultFile
		if err := readJSONFile(f, &rf); err != nil {
			return nil, err
		}
		for _, r := range rf.Reports {
			if r.Trace == 1 {
				s.traced[r.Workload] = append(s.traced[r.Workload], r)
			} else {
				s.timed[r.Workload] = append(s.timed[r.Workload], r)
			}
		}
	}
	if len(s.timed) == 0 {
		return nil, fmt.Errorf("%s: no timed report", path)
	}
	return s, nil
}

// estimate is one side's reading of one metric on one workload: the
// median and the quartile range of its runs or, for a single run, the
// run's value and the quartile range of the samples behind it.
type estimate struct {
	median, lo, hi float64
	runs           int
}

func estimateOf(reports []*report, name string) (estimate, bool) {
	var values []float64
	for _, r := range reports {
		if m, ok := r.Metrics[name]; ok {
			values = append(values, m.Value)
		}
	}
	switch len(values) {
	case 0:
		return estimate{}, false
	case 1:
		e := estimate{median: values[0], lo: values[0], hi: values[0], runs: 1}
		if s, ok := reports[0].Samples[name]; ok && s.N > 1 {
			e.lo, e.hi = s.Q1, s.Q3
		}
		return e, true
	}
	s := summarize(values)
	return estimate{median: s.Median, lo: s.Q1, hi: s.Q3, runs: s.N}, true
}

// Verdicts of a comparison, b against the base a.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares b with the base a under a metric's direction and bound.
// When the two quartile ranges overlap by more than the bound (as a
// share of the base median) the runs cannot tell a regression of that
// size from noise, and the pairing is unresolved. Otherwise b is worse
// when its median is worse by more than the bound, better when it is
// better with the ranges apart, and within bound in between. One run a
// side never shows a gain: the range inside a run says nothing about the
// drift between runs.
func judge(d metricDef, a, b estimate) string {
	overlap := min(a.hi, b.hi) - max(a.lo, b.lo)
	worseBy := (b.median - a.median) / a.median
	if d.Better == "higher" {
		worseBy = -worseBy
	}
	switch {
	case overlap > d.Bound*a.median:
		return verdictUnresolved
	case worseBy > d.Bound:
		return verdictWorse
	case worseBy < 0 && overlap < 0 && a.runs > 1 && b.runs > 1:
		return verdictBetter
	}
	return verdictWithin
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// their ratio with its base, the bound and the verdict, then every
// result digest and exact count that differs between the sides for the
// same workload and seed. It fails when anything is worse or differs.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := loadSide(pathA)
	if err != nil {
		return err
	}
	b, err := loadSide(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "base a = %s\n     b = %s\n", pathA, pathB)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median\tb median\tb/a\tbound\tverdict\truns a/b")
	bad := 0
	for _, wl := range workloadKinds {
		for _, d := range endToEnd {
			ea, okA := estimateOf(a.timed[wl.name], d.Name)
			eb, okB := estimateOf(b.timed[wl.name], d.Name)
			if !okA || !okB {
				continue
			}
			verdict := judge(d, ea, eb)
			if verdict == verdictWorse {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\t%.5g\t%.3f\t%.0f%%\t%s\t%d/%d\n",
				wl.name, d.Name, d.Unit, ea.median, eb.median, eb.median/ea.median, d.Bound*100, verdict, ea.runs, eb.runs)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, wl := range workloadKinds {
		bad += diffExact(w, wl.name, a, b)
	}
	if bad > 0 {
		return fmt.Errorf("%d pairing(s) worse or differing", bad)
	}
	return nil
}

// diffExact reports what must be bit-identical between two commits for
// one workload and seed: the result digest of the timed and traced runs,
// and the exact per-layer counts. It returns the number of differences.
func diffExact(w io.Writer, workload string, a, b *side) int {
	bySeed := func(reports []*report) map[int64]*report {
		m := map[int64]*report{}
		for _, r := range reports {
			m[r.Seed] = r
		}
		return m
	}
	diffs := 0
	for trace, pair := range [][2][]*report{{a.timed[workload], b.timed[workload]}, {a.traced[workload], b.traced[workload]}} {
		other := bySeed(pair[1])
		for _, ra := range pair[0] {
			rb, ok := other[ra.Seed]
			if !ok || ra.Quick != rb.Quick {
				continue
			}
			if ra.ResultDigest != rb.ResultDigest {
				diffs++
				fmt.Fprintf(w, "DIFFERS %s seed %d trace %d: result_digest %s vs %s\n",
					workload, ra.Seed, trace, ra.ResultDigest, rb.ResultDigest)
			}
			for _, d := range perLayer {
				ma, okA := ra.Metrics[d.Name]
				mb, okB := rb.Metrics[d.Name]
				if d.Exact && okA && okB && ma.Value != mb.Value {
					diffs++
					fmt.Fprintf(w, "DIFFERS %s seed %d: %s %v vs %v\n", workload, ra.Seed, d.Name, ma.Value, mb.Value)
				}
			}
		}
	}
	return diffs
}
