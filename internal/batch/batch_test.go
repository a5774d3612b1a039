package batch

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// parse registers the shared flags plus one command-owned flag on a fresh
// flag set and parses args.
func parse(args ...string) (*Flags, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs)
	fs.String("own", "dflt", "a flag of the calling command")
	return f, f.Parse(args)
}

func writeSpec(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSharedFlagValidation is the one table over the validation both
// commands used to test separately.
func TestSharedFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-reps", "0"}, "-reps 0 must be >= 1"},
		{[]string{"-jobs", "-1"}, "-jobs -1 must be >= 0"},
		{[]string{"-scale", "galactic"}, "galactic"},
		{[]string{"-no-such-flag"}, "not defined"},
		// The governance policy is a constant, not a flag.
		{[]string{"-max-dead-frac", "0"}, "not defined"},
		{[]string{"-max-slot-slack", "0"}, "not defined"},
	} {
		if _, err := parse(tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("args %v: err = %v, want one containing %q", tc.args, err, tc.want)
		}
	}

	f, err := parse("-scale", "tiny", "-seed", "7", "-reps", "3", "-jobs", "2", "-quiet")
	if err != nil {
		t.Fatal(err)
	}
	if f.Scale.Name != "tiny" || f.Seed != 7 || f.Reps != 3 || f.Jobs != 2 || !f.Quiet {
		t.Fatalf("parsed flags wrong: %+v", f)
	}
	if f, err = parse(); err != nil || f.Scale.Name != "reduced" || f.Seed != 1 || f.Reps != 1 {
		t.Fatalf("defaults wrong: %+v, err %v", f, err)
	}
}

// TestGiven pins that a flag counts as given when it appears on the
// command line, even with its default value.
func TestGiven(t *testing.T) {
	f, err := parse("-own", "dflt", "-seed", "1")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(f.Given("own", "seed", "reps"), " "); got != "-own -seed" {
		t.Fatalf("Given = %q, want %q", got, "-own -seed")
	}
	if f, _ = parse(); len(f.Given("own", "seed")) != 0 {
		t.Fatal("nothing was given")
	}
}

func TestLoadScenario(t *testing.T) {
	const runs = `"runs": [{"name": "A/k=5", "k": 5, "traffic": false}]`

	f, _ := parse("-scenario", filepath.Join(t.TempDir(), "absent.json"))
	if _, err := f.LoadScenario(); err == nil {
		t.Error("unreadable -scenario should fail")
	}
	f, _ = parse("-scenario", writeSpec(t, `{"version": 1, "id": "x", "scale": "galactic", `+runs+`}`))
	if _, err := f.LoadScenario(); err == nil || !strings.Contains(err.Error(), "galactic") {
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
		f, err := parse("-scenario", tc.file, "-scale", tc.flag, "-seed", "5")
		if err != nil {
			t.Fatal(err)
		}
		exp, err := f.LoadScenario()
		if err != nil {
			t.Fatal(err)
		}
		if f.Scale.Name != tc.want || exp.Configs[0].Size != f.Scale.Small {
			t.Errorf("-scale %s with %s: scale %q size %d, want scale %q size %d",
				tc.flag, filepath.Base(tc.file), f.Scale.Name, exp.Configs[0].Size, tc.want, f.Scale.Small)
		}
		if exp.ID != "x" || exp.Configs[0].Seed != 5 {
			t.Errorf("experiment resolved wrong: id %q seed %d", exp.ID, exp.Configs[0].Seed)
		}
	}
}

func TestCSVPath(t *testing.T) {
	f := &Flags{CSVDir: "out"}
	for _, tc := range []struct {
		rep          int
		suffix, want string
	}{
		{0, ".csv", "SimA_k5.csv"},
		{2, ".csv", "SimA_k5_r2.csv"},
		{0, "_agg.csv", "SimA_k5_agg.csv"},
	} {
		if got := f.CSVPath("SimA/k=5", tc.rep, tc.suffix); got != filepath.Join("out", tc.want) {
			t.Errorf("CSVPath(rep %d, %q) = %q, want %q", tc.rep, tc.suffix, got, tc.want)
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
	f, err := parse("-json", filepath.Join(blocker, "sub"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Prepare(); err == nil {
		t.Fatal("Prepare must fail when -json cannot be created")
	}
}
