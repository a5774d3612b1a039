// Command kadbench diffs two points of the repository's performance
// trajectory (the BENCH_<date>.json files written by the -benchjson test
// mode), rendering a benchstat-style old-vs-new table of ns/op and
// allocs/op and optionally failing on regressions. With three or more
// files — or -trend — it renders the whole trajectory instead: one row
// per benchmark with a sparkline of ns/op across the given points and
// the first-to-last delta, so the committed BENCH_*.json history reads
// as a table.
//
// Usage:
//
//	kadbench [-max-regress PCT] OLD.json NEW.json
//	kadbench -trend BENCH_*.json
//
// With -max-regress set to a positive percentage, kadbench exits nonzero
// when any benchmark present in both files regressed by more than PCT
// percent — the CI gate for the trajectory. Without it the table is
// informational (CI's -benchtime=1x smoke numbers are too noisy to gate
// on).
//
// Deltas are raw per-benchmark ns/op changes, so two points compare only
// when they were recorded on the same host. There is no host factor: a
// file's geometric mean over the common benchmarks, once divided out, took
// a change that sped many benchmarks up for a faster host, and reported a
// benchmark that ran x0.81 on one host at +135 %.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// benchFile mirrors the benchTrajectoryFile schema written by the
// -benchjson test mode.
type benchFile struct {
	Date       string       `json:"date"`
	GoVersion  string       `json:"go_version"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Scale      string       `json:"scale"`
	Benchmarks []benchEntry `json:"benchmarks"`
}

type benchEntry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kadbench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("kadbench", flag.ContinueOnError)
	fs.SetOutput(w)
	maxRegress := fs.Float64("max-regress", 0,
		"fail when any common benchmark regresses by more than this percentage (0 disables the gate)")
	trend := fs.Bool("trend", false,
		"render a sparkline trend table across all given trajectory files instead of a two-point diff")
	fs.Usage = func() {
		fmt.Fprintln(w, "usage: kadbench [-max-regress PCT] OLD.json NEW.json")
		fmt.Fprintln(w, "       kadbench -trend FILE.json...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trend || fs.NArg() > 2 {
		if *maxRegress > 0 {
			// The trend table is informational; silently dropping the gate
			// (e.g. because a glob matched one extra file) must not pass CI.
			return fmt.Errorf("-max-regress gates a two-file diff, not a trend table; pass exactly OLD.json NEW.json")
		}
		if fs.NArg() < 1 {
			// A glob that matched nothing expands to zero arguments; say so
			// instead of rendering an empty table.
			fs.Usage()
			return fmt.Errorf("trend mode wants at least one trajectory file, got none")
		}
		return runTrend(fs.Args(), w)
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return fmt.Errorf("want exactly two trajectory files, got %d", fs.NArg())
	}
	oldDoc, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	newDoc, err := load(fs.Arg(1))
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "old: %s (%s, %s, gomaxprocs %d)\n", fs.Arg(0), oldDoc.Date, oldDoc.GoVersion, oldDoc.GOMAXPROCS)
	fmt.Fprintf(w, "new: %s (%s, %s, gomaxprocs %d)\n\n", fs.Arg(1), newDoc.Date, newDoc.GoVersion, newDoc.GOMAXPROCS)

	oldBy := map[string]benchEntry{}
	for _, b := range oldDoc.Benchmarks {
		oldBy[b.Name] = b
	}
	newBy := map[string]benchEntry{}
	for _, b := range newDoc.Benchmarks {
		newBy[b.Name] = b
	}

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "benchmark\told ns/op\tnew ns/op\tdelta\told allocs\tnew allocs\t")
	var regressed []string
	// Old-file order first (stable diff), then additions in new-file order.
	for _, ob := range oldDoc.Benchmarks {
		nb, ok := newBy[ob.Name]
		if !ok {
			fmt.Fprintf(tw, "%s\t%s\t\tremoved\t%d\t\t\n", ob.Name, fmtNs(ob.NsPerOp), ob.AllocsPerOp)
			continue
		}
		delta := pctDelta(ob.NsPerOp, nb.NsPerOp)
		fmt.Fprintf(tw, "%s\t%s\t%s\t%+.2f%%\t%d\t%d\t\n",
			ob.Name, fmtNs(ob.NsPerOp), fmtNs(nb.NsPerOp), delta, ob.AllocsPerOp, nb.AllocsPerOp)
		if *maxRegress > 0 && delta > *maxRegress {
			regressed = append(regressed, fmt.Sprintf("%s: %+.2f%% ns/op (limit %+.2f%%)", ob.Name, delta, *maxRegress))
		}
	}
	for _, nb := range newDoc.Benchmarks {
		if _, ok := oldBy[nb.Name]; !ok {
			fmt.Fprintf(tw, "%s\t\t%s\tadded\t\t%d\t\n", nb.Name, fmtNs(nb.NsPerOp), nb.AllocsPerOp)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(regressed) > 0 {
		fmt.Fprintln(w)
		for _, r := range regressed {
			fmt.Fprintln(w, "REGRESSION:", r)
		}
		return fmt.Errorf("%d benchmark(s) regressed beyond %.2f%%", len(regressed), *maxRegress)
	}
	return nil
}

// sparkRunes are the eight sparkline levels, lowest to highest ns/op.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// runTrend renders the trajectory table: one row per benchmark (ordered
// by first appearance across the files), a sparkline of its ns/op over
// the points, the first and latest values, and the first-to-last delta.
// Points where a benchmark is absent render as '·' in the sparkline.
func runTrend(paths []string, w io.Writer) error {
	docs := make([]*benchFile, len(paths))
	for i, p := range paths {
		d, err := load(p)
		if err != nil {
			return err
		}
		docs[i] = d
	}
	if len(docs) == 1 {
		fmt.Fprintf(w, "trajectory: 1 point, %s (%s)\n\n", paths[0], docs[0].Date)
	} else {
		fmt.Fprintf(w, "trajectory: %d points, %s (%s) -> %s (%s)\n\n",
			len(docs), paths[0], docs[0].Date, paths[len(paths)-1], docs[len(docs)-1].Date)
	}

	var names []string
	seen := map[string]bool{}
	for _, d := range docs {
		for _, b := range d.Benchmarks {
			if !seen[b.Name] {
				seen[b.Name] = true
				names = append(names, b.Name)
			}
		}
	}

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "benchmark\ttrend\tfirst ns/op\tlatest ns/op\tdelta\t")
	for _, name := range names {
		series := make([]float64, len(docs))
		present := make([]bool, len(docs))
		for i, d := range docs {
			for _, b := range d.Benchmarks {
				if b.Name == name {
					series[i], present[i] = b.NsPerOp, true
					break
				}
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t\n",
			name, sparkline(series, present), firstVal(series, present),
			lastVal(series, present), trendDelta(series, present))
	}
	return tw.Flush()
}

// sparkline maps the present points onto the eight spark levels,
// normalized to the benchmark's own min..max range (a flat series
// renders at the lowest level).
func sparkline(series []float64, present []bool) string {
	lo, hi := 0.0, 0.0
	first := true
	for i, v := range series {
		if !present[i] {
			continue
		}
		if first || v < lo {
			lo = v
		}
		if first || v > hi {
			hi = v
		}
		first = false
	}
	var out []rune
	for i, v := range series {
		if !present[i] {
			out = append(out, '·')
			continue
		}
		level := 0
		if hi > lo {
			level = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		out = append(out, sparkRunes[level])
	}
	return string(out)
}

func firstVal(series []float64, present []bool) string {
	for i := range series {
		if present[i] {
			return fmtNs(series[i])
		}
	}
	return "-"
}

func lastVal(series []float64, present []bool) string {
	for i := len(series) - 1; i >= 0; i-- {
		if present[i] {
			return fmtNs(series[i])
		}
	}
	return "-"
}

// trendDelta reports the percentage change from the first present point
// to the last (negative = faster).
func trendDelta(series []float64, present []bool) string {
	fi, li := -1, -1
	for i := range series {
		if present[i] {
			if fi < 0 {
				fi = i
			}
			li = i
		}
	}
	if fi < 0 || fi == li {
		return "-"
	}
	return fmt.Sprintf("%+.2f%%", pctDelta(series[fi], series[li]))
}

func load(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc benchFile
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks in trajectory file", path)
	}
	return &doc, nil
}

// pctDelta returns the ns/op change in percent (positive = slower).
func pctDelta(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old * 100
}

// fmtNs renders nanoseconds compactly (benchstat style).
func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.3gs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.4gms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.4gµs", ns/1e3)
	default:
		return fmt.Sprintf("%.4gns", ns)
	}
}
