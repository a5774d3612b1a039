// Command bench is the repository benchmark: four workloads, end-to-end
// metrics from untraced runs and per-layer metrics from a traced run,
// every layer measured from outside through its public functions.
//
//	bash bench/run.sh -seed 1                      every workload, timed then traced
//	bash bench/run.sh -workload W -trace 0|1 ...   one run, result as the last line
//	bash bench/run.sh -compare a.json b.json       compare two result files
//
// run.sh builds this module (kadre/bench, a module of its own beside the
// repository's) into .bench_build and runs it from the repository root.
// See README.md in this directory.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// procs is the fixed parallelism of every untraced run (the sandbox has
// two cores); traced runs drop to 1 so that spans are busy CPU-seconds.
const procs = 2

// workloadKinds names the workloads and which harness runs each.
var workloadKinds = []struct{ name, kind string }{
	{"sim-traffic", "batch"},
	{"analysis-churn", "batch"},
	{"attack-cutset", "batch"},
	{"serve-mixed", "serve"},
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	quick    bool
	dir      string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload in this process (default: every workload, one process per run)")
	o.seed = 1
	fs.Func("seed", "base seed of the scenario specs and of the query stream (default 1)", func(v string) error {
		seed, err := parseSeed(v)
		o.seed = seed
		return err
	})
	fs.IntVar(&o.seconds, "seconds", 20, "seconds each timed run measures for")
	fs.IntVar(&o.trace, "trace", 0, "with -workload: 0 times the end-to-end metrics, 1 traces the per-layer metrics")
	fs.BoolVar(&o.quick, "quick", false, "smoke mode: one pass over shrunken workloads")
	fs.StringVar(&o.dir, "dir", "bench", "the benchmark's directory (workloads/ in, out/ out)")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var err error
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		err = compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	case fs.NArg() != 0:
		fmt.Fprintf(stderr, "bench: unexpected arguments %v\n", fs.Args())
		return 2
	case o.workload == "":
		err = runAll(o, stdout, stderr)
	default:
		err = runOne(o, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// parseSeed reads a seed of any 64 bits: a signed decimal, or an unsigned
// one beyond the signed range, which wraps.
func parseSeed(v string) (int64, error) {
	if seed, err := strconv.ParseInt(v, 10, 64); err == nil {
		return seed, nil
	}
	u, err := strconv.ParseUint(v, 10, 64)
	return int64(u), err
}

// kindOf returns the harness kind of a workload name.
func kindOf(name string) (string, error) {
	for _, w := range workloadKinds {
		if w.name == name {
			return w.kind, nil
		}
	}
	return "", fmt.Errorf("unknown workload %q", name)
}

// measure runs one workload once in this process, timed or traced, and
// returns its finished report. An error means the run could not be
// carried out at all; failed output checks are in the report.
func measure(o options) (*report, error) {
	kind, err := kindOf(o.workload)
	if err != nil {
		return nil, err
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1, not %d", o.trace)
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	if err := os.MkdirAll(filepath.Join(o.dir, "out"), 0o755); err != nil {
		return nil, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	r := newReport(o)
	switch {
	case o.trace == 1:
		err = traced(o, kind, r)
	case kind == "serve":
		err = serveTimed(o, r)
	default:
		err = batchTimed(o, r)
	}
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", o.workload, err)
	}
	r.finish()
	return r, nil
}

// reportPath is where a run leaves its full report for runAll to merge.
func reportPath(o options) string {
	return filepath.Join(o.dir, "out", fmt.Sprintf("%s-trace%d.json", o.workload, o.trace))
}

// runOne is the single-workload mode the benchmark driver calls: the
// human-readable report first, the result object as the last line.
func runOne(o options, stdout io.Writer) error {
	r, err := measure(o)
	if err != nil {
		return err
	}
	if err := writeJSONFile(reportPath(o), r); err != nil {
		return err
	}
	printReport(stdout, r)
	fmt.Fprintln(stdout, r.resultLine())
	return nil
}

// printReport lists every metric by name with its unit and, for timings,
// the sample count and spread behind it.
func printReport(w io.Writer, r *report) {
	fmt.Fprintf(w, "== %s  seed=%d trace=%d gomaxprocs=%d seconds=%d  attempted=%d failed=%d  result_digest=%s\n",
		r.Workload, r.Seed, r.Trace, r.GOMAXPROCS, r.Seconds, r.Attempted, r.Failed, r.ResultDigest)
	for _, d := range catalogue(r.Trace) {
		m := r.Metrics[d.Name]
		line := fmt.Sprintf("  %-38s %14.6g %-5s", d.Name, m.Value, m.Unit)
		if s, ok := r.Samples[d.Name]; ok {
			line += "  [" + s.String() + "]"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	for _, f := range r.Failures {
		fmt.Fprintln(w, "  CHECK FAILED:", f)
	}
}

// resultFile is what runAll writes: every report of one invocation.
type resultFile struct {
	Seed       int64     `json:"seed"`
	Seconds    int       `json:"seconds"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NumCPU     int       `json:"num_cpu"`
	GoVersion  string    `json:"go_version"`
	Quick      bool      `json:"quick,omitempty"`
	Reports    []*report `json:"reports"`
}

// runAll runs every workload, timed then traced, each run in a process
// of its own so that peak RSS belongs to one workload, and merges the
// reports into out/result-seed<seed>.json.
func runAll(o options, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	out := resultFile{
		Seed: o.seed, Seconds: o.seconds, GOMAXPROCS: procs,
		NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), Quick: o.quick,
	}
	failed := 0
	for _, w := range workloadKinds {
		var timed *report
		for trace := 0; trace <= 1; trace++ {
			child := o
			child.workload, child.trace = w.name, trace
			r, err := runChild(self, child, stdout, stderr)
			if err != nil {
				return err
			}
			out.Reports = append(out.Reports, r)
			if !r.Correct {
				failed++
			}
			if trace == 0 {
				timed = r
			} else if r.ResultDigest != timed.ResultDigest {
				// Same seed, same inputs: the traced process must reproduce
				// the timed one's results byte for byte.
				failed++
				fmt.Fprintf(stdout, "  CHECK FAILED: traced digest %s differs from timed digest %s\n",
					r.ResultDigest, timed.ResultDigest)
			}
		}
	}
	path := filepath.Join(o.dir, "out", "result-seed"+strconv.FormatInt(o.seed, 10)+".json")
	if err := writeJSONFile(path, out); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "result file:", path)
	if failed > 0 {
		return fmt.Errorf("%d run(s) failed an output check", failed)
	}
	return nil
}

// runChild re-executes this binary for one workload run, relays its
// report (minus the result line) and loads the report file it wrote.
func runChild(self string, o options, stdout, stderr io.Writer) (*report, error) {
	args := []string{
		"-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(o.trace), "-dir", o.dir,
	}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if !strings.HasPrefix(sc.Text(), "{") {
			fmt.Fprintln(stdout, sc.Text())
		}
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("workload %s trace %d: %w", o.workload, o.trace, err)
	}
	var r report
	if err := readJSONFile(reportPath(o), &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// timeSetups pays a workload's set-up groups x per times and returns the
// mean seconds of each group of per consecutive set-ups; setup_s is the
// median over the groups. A single set-up is either side of a collector
// cycle — its own median flips between the two — while a group always
// holds its share of them.
func timeSetups(groups, per int, setup func() error) ([]float64, error) {
	means := make([]float64, 0, groups)
	for g := 0; g < groups; g++ {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			if err := setup(); err != nil {
				return nil, err
			}
		}
		means = append(means, time.Since(t0).Seconds()/float64(per))
	}
	return means, nil
}

// rssMeter reads the peak resident set of consecutive windows of a run:
// reset before a window, mark after it. The reported peak is the median
// over the windows, which one collector overshoot does not move.
type rssMeter struct {
	peaksMB []float64
}

// reset makes the kernel restart the process's peak-RSS (VmHWM) from the
// current resident set. Where /proc does not allow it every window reads
// the peak since process start, which is still a valid, coarser reading.
func (m *rssMeter) reset() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// mark records the peak resident set, in MiB, since the last reset.
func (m *rssMeter) mark() {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				m.peaksMB = append(m.peaksMB, kb/1024)
			}
			return
		}
	}
}
