package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"kadre/internal/sweep"
	"kadre/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// runDir invokes the CLI writing CSV and JSON artefacts into a fresh dir.
func runDir(t *testing.T, dir string, extra ...string) string {
	t.Helper()
	var buf bytes.Buffer
	args := append([]string{"-scale", "tiny", "-quiet", "-csv", dir, "-json", dir}, extra...)
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestAttackEndToEnd is the acceptance run: all four strategies at tiny
// scale must produce byte-identical artefacts across -jobs values, and
// the cutset adversary must degrade connectivity at least as fast as the
// random baseline.
func TestAttackEndToEnd(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	out := runDir(t, dir1, "-jobs", "1")
	runDir(t, dir2, "-jobs", "8")

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
	for _, not := range []string{"ci95", "mean of reps", "95% CI", "cross-replication"} {
		if strings.Contains(out, not) {
			t.Fatalf("one-rep output contains %q:\n%s", not, out)
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
		f2 := filepath.Join(dir2, filepath.Base(f1))
		b1, err := os.ReadFile(f1)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := os.ReadFile(f2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("%s differs between -jobs 1 and -jobs 8", filepath.Base(f1))
		}
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
// byte for byte: the cutset run alone, all four strategies together, and
// the cutset adversary under churn (testdata/attack_tiny_cutset_churn.json:
// joins and leaves between strikes, the second run with traffic and two
// kills per strike). Victims are ranks of one dense capture per strike;
// simulator, analyzer or adversary refactors that shift any measured
// value fail here first. Regenerate with: go test ./cmd/kadattack -run
// Golden -update
func TestGoldenTinyAttack(t *testing.T) {
	for _, tt := range []struct {
		golden string
		args   []string
	}{
		{"attack_tiny_cutset.golden.json", []string{"-strategies", "cutset", "-jobs", "2"}},
		{"attack_tiny.golden.json", nil},
		{"attack_tiny_cutset_churn.golden.json", []string{"-scenario", filepath.Join("testdata", "attack_tiny_cutset_churn.json")}},
	} {
		dir := t.TempDir()
		runDir(t, dir, tt.args...)
		got, err := os.ReadFile(filepath.Join(dir, "attack.json"))
		if err != nil {
			t.Fatal(err)
		}
		golden := filepath.Join("testdata", tt.golden)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
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

// TestBudgetIntervalOverride pins the flag arithmetic: a coarse custom
// interval leaves only 3 strikes in the tiny window, and the kill count
// must be re-spread so the requested budget is still exhausted.
func TestBudgetIntervalOverride(t *testing.T) {
	dir := t.TempDir()
	runDir(t, dir, "-strategies", "degree", "-budget", "20", "-interval", "15m")
	data, err := os.ReadFile(filepath.Join(dir, "attack.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc sweep.JSONFile
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if got := doc.Runs[0].Reps[0].AttackRemoved; got != 20 {
		t.Fatalf("removed %d, want the full -budget 20 despite the 15m -interval", got)
	}
}

// TestCheckpointResumeFlag exercises the -checkpoint flag end to end: a
// second invocation replays every run from disk.
func TestCheckpointResumeFlag(t *testing.T) {
	ckpt := t.TempDir()
	var first, second bytes.Buffer
	args := []string{"-scale", "tiny", "-strategies", "random,degree", "-checkpoint", ckpt}
	if err := run(args, &first); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(first.String(), "(checkpoint)") {
		t.Fatal("first run claims checkpoint replays")
	}
	if err := run(args, &second); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(second.String(), "(checkpoint)"); got != 2 {
		t.Fatalf("second run replayed %d runs from checkpoints, want 2:\n%s", got, second.String())
	}
	// Replayed rendering must match the fresh rendering (progress lines
	// aside, which carry wall-clock timings).
	trim := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if !strings.HasPrefix(line, "  [") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	if trim(first.String()) != trim(second.String()) {
		t.Fatalf("resumed rendering differs:\n--- fresh ---\n%s\n--- resumed ---\n%s", first.String(), second.String())
	}
}

// TestRunErrors covers kadattack's own flags; the shared flags'
// validation is tested once, in internal/batch.
func TestRunErrors(t *testing.T) {
	discard := &bytes.Buffer{}
	for _, bad := range [][]string{
		{"-strategies", "random,klingon"},
		{"-budget", "-5"},
	} {
		if err := run(bad, discard); err == nil {
			t.Errorf("args %v should fail", bad)
		}
	}
	// A negative interval is not "use the default": it fails like a
	// negative budget, before any output directory is created.
	outDir := filepath.Join(t.TempDir(), "out")
	if err := run([]string{"-scale", "tiny", "-interval", "-1m", "-csv", outDir}, discard); err == nil || !strings.Contains(err.Error(), "-interval") {
		t.Errorf("-interval -1m: err = %v, want a flag error naming -interval", err)
	}
	if _, err := os.Stat(outDir); !os.IsNotExist(err) {
		t.Errorf("-interval -1m created %s before failing (stat err %v)", outDir, err)
	}
	// The governance policy is a constant, not a flag.
	if err := run([]string{"-scale", "tiny", "-max-dead-frac", "0"}, discard); err == nil || !strings.Contains(err.Error(), "not defined") {
		t.Errorf("-max-dead-frac: err = %v, want an unknown-flag error", err)
	}
	// A spec defines the attacks: any explicitly passed attack flag beside
	// -scenario is rejected, the default-valued -strategies list included.
	for _, own := range [][]string{
		{"-strategies", "random,degree,cutset,eclipse"},
		{"-strategies", "cutset"},
		{"-budget", "10"},
		{"-interval", "4m"},
	} {
		args := append([]string{"-scenario", cutsetSpec, "-scale", "tiny"}, own...)
		if err := run(args, discard); err == nil || !strings.Contains(err.Error(), "mutually exclusive with "+own[0]) {
			t.Errorf("args %v: err = %v, want a mutual-exclusion error naming %s", args, err, own[0])
		}
	}
	plain := filepath.Join("..", "..", "specs", "figure2.json")
	if err := run([]string{"-scenario", plain, "-scale", "tiny"}, discard); err == nil || !strings.Contains(err.Error(), "no attack block") {
		t.Errorf("attack-free spec: err = %v, want a no-attack-block error", err)
	}
}

var cutsetSpec = filepath.Join("..", "..", "examples", "attack_cutset.json")

// runsOf extracts the "runs" array of a sweep JSON document: the part two
// front ends must agree on byte for byte, whatever labelling each main
// passes in.
func runsOf(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Runs json.RawMessage `json:"runs"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Runs
}

// TestScenarioParityWithKadsweep pins the one batch path across the two
// commands: the same attack spec swept by kadattack (in-process) and by
// the real kadsweep binary yields JSON documents whose "runs" arrays are
// byte-identical.
func TestScenarioParityWithKadsweep(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	args := []string{"-scenario", cutsetSpec, "-scale", "tiny", "-quiet", "-json"}

	attackDir := t.TempDir()
	if err := run(append(args, attackDir), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	sweepDir := t.TempDir()
	cmd := exec.Command(goBin, append([]string{"run", "../kadsweep"}, append(args, sweepDir)...)...)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("kadsweep: %v\n%s", err, out)
	}

	got, want := runsOf(t, filepath.Join(attackDir, "attack.json")), runsOf(t, filepath.Join(sweepDir, "attack-cutset.json"))
	if len(got) == 0 || !bytes.Equal(got, want) {
		t.Fatalf("runs arrays differ between kadattack and kadsweep:\n--- kadattack ---\n%.1500s\n--- kadsweep ---\n%.1500s", got, want)
	}
}

// TestOverrideParityWithSpec pins the one adversary rule across its two
// spellings: -budget/-interval on the preset experiment and the same
// numbers in a spec's attack blocks complete through the same defaulting
// (kills re-spread over the strikes that fit), so the "runs" arrays are
// byte-identical for every strategy. The spec pins snapshot_minutes to
// the tiny preset's cadence because the preset does: a custom -interval
// moves the strikes, not the measurements.
func TestOverrideParityWithSpec(t *testing.T) {
	var runs []string
	for _, st := range []string{"random", "degree", "cutset", "eclipse"} {
		runs = append(runs, fmt.Sprintf(`{"name": "Attack/%s", "k": 5, "staleness": 1, "traffic": false, "snapshot_minutes": 5,
			"attack": {"strategy": %q, "budget": 10, "interval_minutes": 4}}`, st, st))
	}
	spec := filepath.Join(t.TempDir(), "override.json")
	doc := `{"version": 1, "id": "attack-override", "runs": [` + strings.Join(runs, ",") + `]}`
	if err := os.WriteFile(spec, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}

	flagDir, specDir := t.TempDir(), t.TempDir()
	if err := run([]string{"-scale", "tiny", "-quiet", "-budget", "10", "-interval", "4m", "-json", flagDir}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scale", "tiny", "-quiet", "-scenario", spec, "-json", specDir}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	got, want := runsOf(t, filepath.Join(flagDir, "attack.json")), runsOf(t, filepath.Join(specDir, "attack.json"))
	if len(got) == 0 || !bytes.Equal(got, want) {
		t.Fatalf("runs arrays differ between the flag and the spec spelling:\n--- flags ---\n%.1500s\n--- spec ---\n%.1500s", got, want)
	}
}

// TestMinutesRoundTrip pins the -interval conversion: every whole-second
// and whole-millisecond interval up to two hours, 100s and 59ms among
// them, resolves back to itself through the spec's float minutes.
func TestMinutesRoundTrip(t *testing.T) {
	for _, unit := range []time.Duration{time.Second, time.Millisecond} {
		for d := unit; d <= 2*time.Hour; d += unit {
			if got := workload.Minutes(minutes(d)); got != d {
				t.Fatalf("minutes(%v) resolves to %v", d, got)
			}
		}
	}
}
