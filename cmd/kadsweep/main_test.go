package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kadre/internal/scenario"
	"kadre/internal/sweep"
	"kadre/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// listGolden is the full -list output at the default (reduced) scale; it
// doubles as a regression net over the experiment catalogue.
const listGolden = `available experiments (paper artefact -> id):
  table1    Table 1 (message-loss scenarios; static)
  figure2   Sim A: size small, churn 0/1, no data traffic (4 runs)
  figure3   Sim B: size large, churn 0/1, no data traffic (4 runs)
  figure4   Sim C: size small, churn 0/1, with data traffic (4 runs)
  figure5   Sim D: size large, churn 0/1, with data traffic (4 runs)
  figure6   Sim E: size small, churn 1/1, with data traffic (4 runs)
  figure7   Sim F: size large, churn 1/1, with data traffic (4 runs)
  figure8   Sim G: size small, churn 10/10, with data traffic (4 runs)
  figure9   Sim H: size large, churn 10/10, with data traffic (4 runs)
  table2    Sims E-H: mean and relative variance of min connectivity during churn (16 runs)
  figure10  mean min connectivity during churn vs k, alpha in {3,5} (24 runs)
  bitlength §5.7: bit-length 80 vs 160 on Sims C and D (4 runs)
  figure11  Sim I: staleness s in {1,5}, no loss, churn 1/1 and 10/10 (4 runs)
  figure12  Sim J: loss sweep, churn 0/0, s in {1,5} (6 runs)
  figure13  Sim K: loss sweep, churn 1/1, s in {1,5} (6 runs)
  figure14  Sim L: loss sweep, churn 10/10, s in {1,5} (6 runs)
  attack    targeted node removal: connectivity degradation by strategy (4 runs)
`

func TestRunListGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != listGolden {
		t.Fatalf("-list output drifted from golden:\n--- got ---\n%s--- want ---\n%s", buf.String(), listGolden)
	}
}

func TestRunTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-exp", "table1"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1: message loss scenarios", "Loss l", "Ploss(1-way)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 output missing %q:\n%s", want, out)
		}
	}
}

// TestRunFigure2TinyEndToEnd is the end-to-end satellite: a replicated
// parallel figure2 sweep at tiny scale with CSV and JSON artefacts, with
// file contents checked rather than just existence.
func TestRunFigure2TinyEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full tiny sweep is slow; skipped with -short")
	}
	dir := t.TempDir()
	var buf bytes.Buffer
	args := []string{
		"-exp", "figure2", "-scale", "tiny", "-reps", "2", "-jobs", "4",
		"-quiet", "-csv", dir, "-json", dir,
	}
	if err := run(context.Background(), args, &buf); err != nil {
		t.Fatal(err)
	}

	// Aggregated rendering: mean ± CI table columns and the CI band chart.
	out := buf.String()
	for _, want := range []string{"mean of reps", "ci95", "(. = 95% CI)", "(2 reps)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("aggregated output missing %q:\n%s", want, out)
		}
	}

	// CSV: 4 configs x 2 reps per-run files plus 4 aggregate files.
	perRun, err := filepath.Glob(filepath.Join(dir, "SimA_k*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	var agg, raw []string
	for _, p := range perRun {
		if strings.HasSuffix(p, "_agg.csv") {
			agg = append(agg, p)
		} else {
			raw = append(raw, p)
		}
	}
	if len(raw) != 8 || len(agg) != 4 {
		t.Fatalf("got %d per-run and %d aggregate CSVs, want 8 and 4", len(raw), len(agg))
	}
	rawData, err := os.ReadFile(raw[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(rawData), "t_min,n,edges,min_conn,avg_conn,symmetry,removed,scc_frac\n") {
		t.Fatalf("per-run csv header wrong: %q", strings.SplitN(string(rawData), "\n", 2)[0])
	}
	if len(strings.Split(strings.TrimSpace(string(rawData)), "\n")) < 3 {
		t.Fatal("per-run csv has no data rows")
	}
	aggData, err := os.ReadFile(agg[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(aggData), "t_min,reps,n_mean,min_mean,min_std,min_ci95,avg_mean,avg_std,avg_ci95") {
		t.Fatalf("aggregate csv header wrong: %q", strings.SplitN(string(aggData), "\n", 2)[0])
	}

	// JSON: one document for the experiment, structurally sound and
	// consistent with the CSV artefacts.
	jsonData, err := os.ReadFile(filepath.Join(dir, "figure2.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc sweep.JSONFile
	if err := json.Unmarshal(jsonData, &doc); err != nil {
		t.Fatalf("figure2.json is not valid JSON: %v", err)
	}
	if doc.Experiment != "figure2" || doc.Scale != "tiny" || doc.Reps != 2 {
		t.Fatalf("JSON header wrong: experiment=%q scale=%q reps=%d", doc.Experiment, doc.Scale, doc.Reps)
	}
	if len(doc.Runs) != 4 {
		t.Fatalf("JSON has %d runs, want 4 (one per k)", len(doc.Runs))
	}
	for _, run := range doc.Runs {
		if len(run.Reps) != 2 {
			t.Fatalf("run %q has %d reps, want 2", run.Name, len(run.Reps))
		}
		if run.Reps[0].Seed == run.Reps[1].Seed {
			t.Fatalf("run %q reps share a seed", run.Name)
		}
		if len(run.Reps[0].Points) == 0 {
			t.Fatalf("run %q has no snapshot points", run.Name)
		}
		if len(run.Aggregate.Min) != len(run.Reps[0].Points) {
			t.Fatalf("run %q aggregate misaligned with points", run.Name)
		}
		if run.Aggregate.Min[0].CI95 == nil {
			t.Fatalf("run %q: two reps must yield a non-null CI", run.Name)
		}
		if run.Churn != "0/1" || run.Traffic {
			t.Fatalf("run %q config wrong in JSON: churn=%q traffic=%v", run.Name, run.Churn, run.Traffic)
		}
	}
}

// TestGoldenTinyFigure2 pins the numeric output of the tiny figure2
// sweep byte for byte (the ROADMAP's "numeric regression pinning"):
// simulator, analyzer, or sweep refactors that shift any measured value
// fail here first. Regenerate with: go test ./cmd/kadsweep -run Golden
// -update
func TestGoldenTinyFigure2(t *testing.T) {
	checkGoldenTinyFigure2(t, []string{"-jobs", "2"}, *update)
}

// TestGoldenTinyFigure2DefaultJobs runs the tiny figure2 sweep with the
// default -jobs. The document carries no worker count, so it must write
// the same fixture bytes as TestGoldenTinyFigure2 — the bytes the CI
// scenario-spec smoke step diffs its CLI runs against too.
func TestGoldenTinyFigure2DefaultJobs(t *testing.T) {
	checkGoldenTinyFigure2(t, nil, false)
}

// checkGoldenTinyFigure2 runs the tiny figure2 sweep with the extra
// arguments, checks the one-rep rendering, and compares the JSON document
// with the figure2 fixture, first rewriting the fixture if write is set.
func checkGoldenTinyFigure2(t *testing.T, extra []string, write bool) {
	t.Helper()
	golden := filepath.Join("testdata", "figure2_tiny_jobs0.golden.json")
	dir := t.TempDir()
	var buf bytes.Buffer
	args := append([]string{"-exp", "figure2", "-scale", "tiny", "-quiet", "-json", dir}, extra...)
	if err := run(context.Background(), args, &buf); err != nil {
		t.Fatal(err)
	}
	// One rep goes through the same render body as a replicated sweep and
	// shows nothing that needs a second run.
	out := buf.String()
	for _, want := range []string{
		" — minimum connectivity\n", " — average connectivity\n", "  * SimA/k=5/min\n",
		"\nSimA/k=5\nt(min)  n     minConn  avgConn\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	for _, not := range []string{"ci95", "mean of reps", "95% CI", "reps)"} {
		if strings.Contains(out, not) {
			t.Fatalf("one-rep output contains %q:\n%s", not, out)
		}
	}
	got, err := os.ReadFile(filepath.Join(dir, "figure2.json"))
	if err != nil {
		t.Fatal(err)
	}
	if write {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("tiny figure2 sweep %v drifted from golden fixture %s (run with -update to regenerate after intentional changes)", extra, golden)
	}
}

// TestCheckpointFlag exercises -checkpoint end to end on figure2: the
// second invocation replays every run from the files, one per run, in the
// checkpoint directory itself.
func TestCheckpointFlag(t *testing.T) {
	ckpt := t.TempDir()
	var first, second bytes.Buffer
	args := []string{"-exp", "figure2", "-scale", "tiny", "-checkpoint", ckpt}
	if err := run(context.Background(), args, &first); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), args, &second); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(second.String(), "(checkpoint)"); got != 4 {
		t.Fatalf("second run replayed %d runs from checkpoints, want 4", got)
	}
	files, err := filepath.Glob(filepath.Join(ckpt, "*.ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 4 {
		t.Fatalf("got %d checkpoint files, want 4", len(files))
	}
}

// TestCheckpointResumeFlag exercises -checkpoint end to end on the attack
// experiment: the second invocation replays every run from disk, one file
// per run in the checkpoint directory itself, and renders identically.
func TestCheckpointResumeFlag(t *testing.T) {
	ckpt := t.TempDir()
	var first, second bytes.Buffer
	args := []string{"-exp", "attack", "-scale", "tiny", "-checkpoint", ckpt}
	if err := run(context.Background(), args, &first); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(first.String(), "(checkpoint)") {
		t.Fatal("first run claims checkpoint replays")
	}
	if err := run(context.Background(), args, &second); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(second.String(), "(checkpoint)"); got != 4 {
		t.Fatalf("second run replayed %d runs from checkpoints, want 4:\n%s", got, second.String())
	}
	files, err := filepath.Glob(filepath.Join(ckpt, "*.ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 4 {
		t.Fatalf("got %d checkpoint files, want 4", len(files))
	}
	// Replayed rendering must match the fresh rendering, apart from the
	// progress lines and the finish line, which carry wall-clock timings.
	trim := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if !strings.HasPrefix(line, "  [") && !strings.HasPrefix(line, "--- attack finished in") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	if trim(first.String()) != trim(second.String()) {
		t.Fatalf("resumed rendering differs:\n--- fresh ---\n%s\n--- resumed ---\n%s", first.String(), second.String())
	}
}

// TestRunErrors covers the choice of what to run; TestFlagValidation
// covers the flag values.
func TestRunErrors(t *testing.T) {
	discard := &bytes.Buffer{}
	if err := run(context.Background(), []string{}, discard); err == nil {
		t.Error("missing -exp should fail")
	}
	if err := run(context.Background(), []string{"-exp", "figure99"}, discard); err == nil {
		t.Error("unknown experiment should fail")
	}
}

// TestRunPooledExperiments exercises the -exp all machinery through the
// shared worker pool on two cheap experiments: one pooled sweep banner,
// experiment-prefixed progress lines, and both experiments rendered in
// order afterwards. (-exp all itself routes through the same
// sweepExperiments call with the full catalogue.)
func TestRunPooledExperiments(t *testing.T) {
	f, err := parseFlags([]string{"-scale", "tiny", "-jobs", "4"})
	if err != nil {
		t.Fatal(err)
	}
	var exps []scenario.Experiment
	for _, id := range []string{"figure2", "figure3"} {
		exp, err := f.scale.ExperimentByID(id, f.seed)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, exp)
	}
	var buf bytes.Buffer
	if err := sweepExperiments(context.Background(), &buf, f, exps...); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "=== pooled sweep: 2 experiments") {
		t.Fatalf("missing pooled banner:\n%.600s", out)
	}
	// Progress lines carry the experiment prefix so interleaved runs
	// stay attributable.
	if !strings.Contains(out, "] figure2/") || !strings.Contains(out, "] figure3/") {
		t.Fatalf("progress lines lack experiment prefixes:\n%.600s", out)
	}
	// Both experiments render a section after the runs complete.
	for _, want := range []string{"=== figure2:", "=== figure3:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q", want)
		}
	}
	// The pool drains once for the whole sweep, not once per experiment.
	if got := strings.Count(out, "finished in"); got != 1 {
		t.Fatalf("%d 'finished in' markers, want 1 (single pooled sweep)", got)
	}
}

// TestCIStopAdaptiveSweep exercises -ci-stop end to end: adaptive
// replication renders and serializes through the normal pipeline, rep
// counts respect the -reps budget, and the artefacts are identical for
// any -jobs value.
func TestCIStopAdaptiveSweep(t *testing.T) {
	runOnce := func(jobs string) (string, []byte) {
		dir := t.TempDir()
		var buf bytes.Buffer
		args := []string{"-exp", "figure2", "-scale", "tiny", "-reps", "4",
			"-ci-stop", "0.5", "-jobs", jobs, "-json", dir}
		if err := run(context.Background(), args, &buf); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "figure2.json"))
		if err != nil {
			t.Fatal(err)
		}
		return buf.String(), data
	}
	out, doc := runOnce("4")
	if !strings.Contains(out, "adaptive reps (ci-stop 0.5)") {
		t.Fatalf("banner missing adaptive marker:\n%.400s", out)
	}
	// Per-rep progress carries the metric value and the CI so far.
	if !strings.Contains(out, "churn-mean") || !strings.Contains(out, "ci95") {
		t.Fatalf("adaptive progress lines missing stats:\n%.600s", out)
	}
	var file sweep.JSONFile
	if err := json.Unmarshal(doc, &file); err != nil {
		t.Fatal(err)
	}
	for _, r := range file.Runs {
		if len(r.Reps) < 2 || len(r.Reps) > 4 {
			t.Fatalf("run %s consumed %d reps, want within [2, 4]", r.Name, len(r.Reps))
		}
		// The table is titled with the reps the set holds, not the budget.
		if title := fmt.Sprintf("\n%s (%d reps)\n", r.Name, len(r.Reps)); !strings.Contains(out, title) {
			t.Fatalf("output missing %q:\n%s", title, out)
		}
	}
	// Adaptive stop indices depend only on seeds and statistics, so the
	// serialized artefact is identical under a different -jobs.
	if _, doc1 := runOnce("1"); !bytes.Equal(doc, doc1) {
		t.Fatal("adaptive JSON differs between -jobs 4 and -jobs 1")
	}
}

func TestCIStopValidation(t *testing.T) {
	discard := &bytes.Buffer{}
	if err := run(context.Background(), []string{"-exp", "figure2", "-ci-stop", "0.2"}, discard); err == nil {
		t.Error("-ci-stop with -reps 1 should fail")
	}
	if err := run(context.Background(), []string{"-exp", "figure2", "-reps", "3", "-ci-stop", "-1"}, discard); err == nil {
		t.Error("negative -ci-stop should fail")
	}
}

// TestCIStopCheckpointReplays pins -ci-stop with -checkpoint: adaptive
// reps are checkpointed like any other run, so a second invocation
// replays every rep the first consumed and writes byte-identical JSON.
func TestCIStopCheckpointReplays(t *testing.T) {
	ckpt := t.TempDir()
	pass := func() ([]string, []byte) {
		dir := t.TempDir()
		var buf bytes.Buffer
		args := []string{"-exp", "figure2", "-scale", "tiny", "-reps", "4", "-ci-stop", "0.5",
			"-jobs", "2", "-checkpoint", ckpt, "-json", dir}
		if err := run(context.Background(), args, &buf); err != nil {
			t.Fatal(err)
		}
		doc, err := os.ReadFile(filepath.Join(dir, "figure2.json"))
		if err != nil {
			t.Fatal(err)
		}
		return progressLines(buf.String()), doc
	}
	first, doc := pass()
	second, replayed := pass()
	if !bytes.Equal(doc, replayed) {
		t.Fatal("the replaying -ci-stop sweep wrote a different document")
	}
	var file sweep.JSONFile
	if err := json.Unmarshal(doc, &file); err != nil {
		t.Fatal(err)
	}
	consumed := 0
	for _, r := range file.Runs {
		consumed += len(r.Reps)
	}
	if len(first) != consumed || len(second) != consumed {
		t.Fatalf("%d and %d progress lines, want one per consumed rep (%d)", len(first), len(second), consumed)
	}
	for i := range second {
		if strings.Contains(first[i], "(checkpoint") || !strings.Contains(second[i], "(checkpoint") {
			t.Fatalf("first pass %q, second pass %q: only the second replays", first[i], second[i])
		}
	}
}

// TestCanceledSweepResumes cancels a checkpointed sweep at its first
// progress line: that invocation fails with context.Canceled and stores
// no canceled run, and re-running it writes the JSON of an uninterrupted
// sweep byte for byte.
func TestCanceledSweepResumes(t *testing.T) {
	args := func(dir string, extra ...string) []string {
		return append([]string{"-exp", "figure2", "-scale", "tiny", "-reps", "2", "-jobs", "2", "-json", dir}, extra...)
	}
	whole, resumed, ckpt := t.TempDir(), t.TempDir(), t.TempDir()
	if err := run(context.Background(), args(whole), io.Discard); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := run(ctx, args(t.TempDir(), "-checkpoint", ckpt), cancelAtProgress(cancel))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sweep returned %v, want context.Canceled", err)
	}
	stored, err := filepath.Glob(filepath.Join(ckpt, "*.ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) == 0 || len(stored) >= 8 {
		t.Fatalf("canceled sweep stored %d of 8 runs, want its completed prefix", len(stored))
	}
	var buf bytes.Buffer
	if err := run(context.Background(), args(resumed, "-checkpoint", ckpt), &buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "(checkpoint)"); got != len(stored) {
		t.Fatalf("resumed sweep replayed %d runs, want the %d stored", got, len(stored))
	}
	want, err := os.ReadFile(filepath.Join(whole, "figure2.json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(resumed, "figure2.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed sweep's document differs from an uninterrupted sweep's")
	}
}

// cancelAtProgress is a stdout that cancels at the first progress line.
type cancelAtProgress context.CancelFunc

func (cancel cancelAtProgress) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte("  [")) {
		cancel()
	}
	return len(p), nil
}

// progressLines returns the progress lines of a sweep's output.
func progressLines(out string) []string {
	var lines []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "  [") {
			lines = append(lines, line)
		}
	}
	return lines
}

// TestGovernanceKnobs pins that memory governance is a constant of the
// batch commands, not a knob: the default document carries the memory
// block, and the retired -max-dead-frac/-max-slot-slack flags are unknown.
// (Dropping the block takes a config with the negative policy; sweep's
// TestBuildJSONDropsMemoryWhenGovernanceDisabled covers that.)
func TestGovernanceKnobs(t *testing.T) {
	dir := t.TempDir()
	if err := run(context.Background(), []string{"-exp", "figure2", "-scale", "tiny", "-quiet", "-json", dir}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(filepath.Join(dir, "figure2.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc), `"memory"`) {
		t.Fatal("default governance must serialize the memory block")
	}
	for _, knob := range []string{"-max-dead-frac", "-max-slot-slack"} {
		err := run(context.Background(), []string{"-exp", "figure2", "-scale", "tiny", knob, "0"}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("%s: err = %v, want an unknown-flag error", knob, err)
		}
	}
}

// TestScenarioSpecMatchesPreset pins the two doors to one catalogue
// entry: specs/figure2.json read from disk through -scenario must emit
// byte-identical JSON to -exp figure2, which resolves the copy embedded
// in the binary.
func TestScenarioSpecMatchesPreset(t *testing.T) {
	sweepJSON := func(file string, args ...string) []byte {
		dir := t.TempDir()
		args = append(args, "-scale", "tiny", "-jobs", "2", "-quiet", "-json", dir)
		if err := run(context.Background(), args, &bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	preset := sweepJSON("figure2.json", "-exp", "figure2")
	spec := sweepJSON("figure2.json", "-scenario", filepath.Join("..", "..", "specs", "figure2.json"))
	if !bytes.Equal(preset, spec) {
		t.Fatalf("-scenario specs/figure2.json diverged from -exp figure2:\n--- -exp ---\n%.2000s\n--- -scenario ---\n%.2000s", preset, spec)
	}
}

// TestScenarioFlashCrowdExample runs the committed worked example end to
// end at tiny scale: the generative bundle (arrivals + diurnal +
// lognormal sessions + zipf popularity + flash crowds) must actually
// move the membership, visible as workload counters in the JSON.
func TestScenarioFlashCrowdExample(t *testing.T) {
	if testing.Short() {
		t.Skip("full example run is slow; skipped with -short")
	}
	dir := t.TempDir()
	args := []string{"-scenario", filepath.Join("..", "..", "examples", "flash_crowd.json"),
		"-scale", "tiny", "-quiet", "-json", dir}
	if err := run(context.Background(), args, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "flash-crowd.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc sweep.JSONFile
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Runs) != 2 {
		t.Fatalf("example has %d runs, want 2", len(doc.Runs))
	}
	for _, r := range doc.Runs {
		for _, rep := range r.Reps {
			if rep.WorkloadJoins == 0 {
				t.Fatalf("run %s seed %d: generative bundle performed no joins", r.Name, rep.Seed)
			}
			if rep.TrafficOps == 0 {
				t.Fatalf("run %s seed %d: no traffic despite traffic: true", r.Name, rep.Seed)
			}
		}
	}
}

func TestScenarioFlagErrors(t *testing.T) {
	discard := &bytes.Buffer{}
	if err := run(context.Background(), []string{"-exp", "figure2", "-scenario", "x.json"}, discard); err == nil ||
		!strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("-exp with -scenario should fail, got %v", err)
	}
}

// TestFlagValidation is the one table over the flag values rejected
// before anything runs.
func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-reps", "0"}, "-reps 0 must be >= 1"},
		{[]string{"-jobs", "-1"}, "-jobs -1 must be >= 0"},
		{[]string{"-scale", "galactic"}, "galactic"},
		{[]string{"-no-such-flag"}, "not defined"},
		// The attack experiment's former flags are spec fields now.
		{[]string{"-strategies", "cutset"}, "not defined"},
		{[]string{"-budget", "10"}, "not defined"},
		{[]string{"-interval", "4m"}, "not defined"},
	} {
		if _, err := parseFlags(append(tc.args, "-exp", "attack")); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("args %v: err = %v, want one containing %q", tc.args, err, tc.want)
		}
	}

	f, err := parseFlags([]string{"-scale", "tiny", "-seed", "7", "-reps", "3", "-jobs", "2", "-quiet"})
	if err != nil {
		t.Fatal(err)
	}
	if f.scale.Name != "tiny" || f.seed != 7 || f.reps != 3 || f.jobs != 2 || !f.quiet {
		t.Fatalf("parsed flags wrong: %+v", f)
	}
	if f, err = parseFlags(nil); err != nil || f.scale.Name != "reduced" || f.seed != 1 || f.reps != 1 {
		t.Fatalf("defaults wrong: %+v, err %v", f, err)
	}
}

func writeSpec(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadScenario(t *testing.T) {
	const runs = `"runs": [{"name": "A/k=5", "k": 5, "traffic": false}]`

	f, _ := parseFlags([]string{"-scenario", filepath.Join(t.TempDir(), "absent.json")})
	if _, err := f.loadScenario(); err == nil {
		t.Error("unreadable -scenario should fail")
	}
	f, _ = parseFlags([]string{"-scenario", writeSpec(t, `{"version": 1, "id": "x", "scale": "galactic", `+runs+`}`)})
	if _, err := f.loadScenario(); err == nil || !strings.Contains(err.Error(), "galactic") {
		t.Errorf("spec pinning an unknown scale: err = %v", err)
	}

	// A scale the spec pins wins over -scale; without one -scale applies.
	pinned := writeSpec(t, `{"version": 1, "id": "x", "scale": "tiny", `+runs+`}`)
	free := writeSpec(t, `{"version": 1, "id": "x", `+runs+`}`)
	for _, tc := range []struct{ file, flag, want string }{
		{pinned, "reduced", "tiny"},
		{free, "reduced", "reduced"},
		{free, "tiny", "tiny"},
	} {
		f, err := parseFlags([]string{"-scenario", tc.file, "-scale", tc.flag, "-seed", "5"})
		if err != nil {
			t.Fatal(err)
		}
		exp, err := f.loadScenario()
		if err != nil {
			t.Fatal(err)
		}
		if f.scale.Name != tc.want || exp.Configs[0].Size != f.scale.Small {
			t.Errorf("-scale %s with %s: scale %q size %d, want scale %q size %d",
				tc.flag, filepath.Base(tc.file), f.scale.Name, exp.Configs[0].Size, tc.want, f.scale.Small)
		}
		if exp.ID != "x" || exp.Configs[0].Seed != 5 {
			t.Errorf("experiment resolved wrong: id %q seed %d", exp.ID, exp.Configs[0].Seed)
		}
	}
}

func TestCSVPath(t *testing.T) {
	for _, tc := range []struct {
		rep          int
		suffix, want string
	}{
		{0, ".csv", "SimA_k5.csv"},
		{2, ".csv", "SimA_k5_r2.csv"},
		{0, "_agg.csv", "SimA_k5_agg.csv"},
	} {
		if got := csvPath("out", "SimA/k=5", tc.rep, tc.suffix); got != filepath.Join("out", tc.want) {
			t.Errorf("csvPath(rep %d, %q) = %q, want %q", tc.rep, tc.suffix, got, tc.want)
		}
	}
}

// TestPrepareFailsBeforeTheSweep pins that an output directory that cannot
// be created is reported up front.
func TestPrepareFailsBeforeTheSweep(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := parseFlags([]string{"-json", filepath.Join(blocker, "sub")})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.prepare(); err == nil {
		t.Fatal("prepare must fail when -json cannot be created")
	}
}

// TestPooledCSVLayout pins that a pooled sweep keeps every experiment's
// CSVs: two experiments that share a run name under different seeds (as
// table2 shares figure6-9's) each write into their own subdirectory.
func TestPooledCSVLayout(t *testing.T) {
	dir := t.TempDir()
	f, err := parseFlags([]string{"-scale", "tiny", "-quiet", "-csv", dir})
	if err != nil {
		t.Fatal(err)
	}
	var exps []scenario.Experiment
	for i, id := range []string{"first", "second"} {
		sp, err := workload.Decode([]byte(fmt.Sprintf(`{"version": 1, "id": %q, "runs": [{"name": "R/k=5", "k": 5,
			"traffic": false, "size": 16, "stabilize_minutes": 10, "seed_offset": %d}]}`, id, i)))
		if err != nil {
			t.Fatal(err)
		}
		exp, err := scenario.FromSpec(sp, f.scale, f.seed)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, exp)
	}
	if err := sweepExperiments(context.Background(), io.Discard, f, exps...); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(filepath.Join(dir, "first", "R_k5.csv"))
	if err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(filepath.Join(dir, "second", "R_k5.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(first, second) {
		t.Fatal("runs of different seeds wrote identical CSVs")
	}
	if top, _ := filepath.Glob(filepath.Join(dir, "*.csv")); len(top) != 0 {
		t.Fatalf("pooled sweep wrote CSVs at the top level: %v", top)
	}
}

// TestAttackEndToEnd is the attack experiment's acceptance run: all four
// strategies at tiny scale must produce byte-identical artefacts across
// -jobs values, render as degradation curves, and the cutset adversary
// must degrade connectivity at least as fast as the random baseline.
func TestAttackEndToEnd(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	artefacts := func(dir, jobs string) string {
		var buf bytes.Buffer
		args := []string{"-exp", "attack", "-scale", "tiny", "-quiet", "-csv", dir, "-json", dir, "-jobs", jobs}
		if err := run(context.Background(), args, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	out := artefacts(dir1, "1")
	artefacts(dir2, "8")

	// Rendering: both degradation charts, the summary and the per-run
	// tables — and, at one rep, nothing that needs a second run.
	for _, want := range []string{
		" — min connectivity vs removed\n", " — largest-SCC fraction\n", "20 removed\n",
		"\nAttack summary\n", "FinalSCC  Disconn(min)\n", "\nAttack/cutset\nt(min)  n ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	for _, not := range []string{"ci95", "mean of reps", "95% CI", "cross-replication", " — minimum connectivity\n"} {
		if strings.Contains(out, not) {
			t.Fatalf("one-rep attack output contains %q:\n%s", not, out)
		}
	}

	// Byte-identical artefacts regardless of worker count.
	files, err := filepath.Glob(filepath.Join(dir1, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 6 { // 4 per-strategy CSVs + summary CSV + attack.json
		t.Fatalf("got %d artefacts, want 6: %v", len(files), files)
	}
	for _, f1 := range files {
		b1, err := os.ReadFile(f1)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := os.ReadFile(filepath.Join(dir2, filepath.Base(f1)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("%s differs between -jobs 1 and -jobs 8", filepath.Base(f1))
		}
	}
	summary, err := os.ReadFile(filepath.Join(dir1, "attack_summary.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(summary), "strategy,reps,removed_mean,churn_window_min_mean,final_min_mean,final_scc_mean\nrandom,1,") {
		t.Fatalf("attack summary wrong:\n%s", summary)
	}

	// Parse the JSON document and compare strategies on the attack
	// window: the cutset adversary's min-connectivity area must not
	// exceed the random baseline's.
	data, err := os.ReadFile(filepath.Join(dir1, "attack.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc sweep.JSONFile
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Runs) != 4 {
		t.Fatalf("got %d runs, want 4 strategies", len(doc.Runs))
	}
	area := map[string]float64{}
	for _, run := range doc.Runs {
		strategy := strings.TrimPrefix(run.Name, "Attack/")
		if run.Attack == "" {
			t.Fatalf("run %q missing attack description", run.Name)
		}
		rep := run.Reps[0]
		if rep.AttackRemoved == 0 || len(rep.Victims) != rep.AttackRemoved {
			t.Fatalf("run %q: removed %d, victim log %d", run.Name, rep.AttackRemoved, len(rep.Victims))
		}
		attacked := false
		for _, p := range rep.Points {
			if p.Removed > 0 {
				attacked = true
				area[strategy] += float64(p.Min)
			}
		}
		if !attacked {
			t.Fatalf("run %q has no post-attack snapshot", run.Name)
		}
	}
	if area["cutset"] > area["random"] {
		t.Fatalf("cutset min-connectivity area %.1f exceeds random baseline %.1f — the targeted adversary must degrade at least as fast",
			area["cutset"], area["random"])
	}
}

// TestGoldenTinyAttack pins the numeric output of the tiny attack runs
// byte for byte: all four strategies of the catalogue experiment, the
// cutset run alone (testdata/attack_tiny_cutset.json: the catalogue
// experiment with only that run), and the cutset adversary under churn
// (testdata/attack_tiny_cutset_churn.json: joins and leaves between
// strikes, the second run with traffic and two kills per strike).
// Victims are ranks of one dense capture per strike; simulator, analyzer
// or adversary refactors that shift any measured value fail here first.
// Regenerate with: go test ./cmd/kadsweep -run Golden -update
func TestGoldenTinyAttack(t *testing.T) {
	for _, tt := range []struct {
		golden, doc string
		args        []string
	}{
		{"attack_tiny.golden.json", "attack.json", []string{"-exp", "attack"}},
		{"attack_tiny_cutset.golden.json", "attack.json", []string{"-scenario", filepath.Join("testdata", "attack_tiny_cutset.json"), "-jobs", "2"}},
		{"attack_tiny_cutset_churn.golden.json", "attack-cutset-churn.json", []string{"-scenario", filepath.Join("testdata", "attack_tiny_cutset_churn.json")}},
	} {
		dir := t.TempDir()
		if err := run(context.Background(), append(tt.args, "-scale", "tiny", "-quiet", "-json", dir), &bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, tt.doc))
		if err != nil {
			t.Fatal(err)
		}
		golden := filepath.Join("testdata", tt.golden)
		if *update {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("tiny attack run %v drifted from golden fixture %s (run with -update to regenerate after intentional changes)", tt.args, golden)
		}
	}
}
