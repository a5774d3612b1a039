package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"kadre/internal/attack"
	"kadre/internal/id"
	"kadre/internal/scenario"
)

// ckptConfigs is a small sweep mixing a plain run and an attacked run, so
// resume is exercised over every checkpointed field (points, victims,
// counters).
func ckptConfigs() []scenario.Config {
	base := scenario.Config{
		Name: "ckpt/plain", Seed: 3, Size: 16, K: 8,
		Setup: 4 * time.Minute, Stabilize: 6 * time.Minute,
		SnapshotInterval: 5 * time.Minute, SampleFraction: 0.2,
	}
	attacked := base
	attacked.Name = "ckpt/attacked"
	attacked.ChurnPhase = 10 * time.Minute
	attacked.Attack = attack.Config{
		Strategy: attack.Degree, Budget: 4, Kills: 2, Interval: 5 * time.Minute,
	}
	return []scenario.Config{base, attacked}
}

// stripUnstored zeroes the fields a checkpoint does not store (the
// wall-clock Elapsed and the event check) so replayed and fresh results
// compare equal on the deterministic measurement surface.
func stripUnstored(sets []*RunSet) {
	for _, rs := range sets {
		for _, r := range rs.Reps {
			r.Elapsed, r.Fingerprint, r.Events = 0, 0, 0
		}
	}
}

func TestCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	ckpt, err := NewCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}

	var freshEvents, cachedEvents int
	opts := Options{Reps: 2, Jobs: 2, Checkpoint: ckpt, Progress: func(ev Event) {
		if ev.Cached {
			cachedEvents++
		} else {
			freshEvents++
		}
	}}
	first, err := Run(ckptConfigs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if freshEvents != 4 || cachedEvents != 0 {
		t.Fatalf("first sweep: %d fresh / %d cached events, want 4/0", freshEvents, cachedEvents)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 4 {
		t.Fatalf("got %d checkpoint files, want 4 (2 configs x 2 reps)", len(files))
	}

	// Second sweep: everything replays from disk and matches byte for byte.
	freshEvents, cachedEvents = 0, 0
	second, err := Run(ckptConfigs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if freshEvents != 0 || cachedEvents != 4 {
		t.Fatalf("resumed sweep: %d fresh / %d cached events, want 0/4", freshEvents, cachedEvents)
	}
	stripUnstored(first)
	stripUnstored(second)
	if !reflect.DeepEqual(first, second) {
		t.Fatal("resumed sweep differs from the original")
	}

	// A missing checkpoint re-runs just that job.
	if err := os.Remove(files[0]); err != nil {
		t.Fatal(err)
	}
	freshEvents, cachedEvents = 0, 0
	third, err := Run(ckptConfigs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if freshEvents != 1 || cachedEvents != 3 {
		t.Fatalf("partial resume: %d fresh / %d cached events, want 1/3", freshEvents, cachedEvents)
	}
	stripUnstored(third)
	if !reflect.DeepEqual(first, third) {
		t.Fatal("partially resumed sweep differs from the original")
	}
}

// TestCheckpointRefusesChangedDefinition pins the resume contract for an
// edited experiment: a checkpoint keyed to this exact run (name, rep,
// seed) but written under a different configuration is a definition
// change, and the sweep must abort loudly instead of silently re-running
// (and thereby mixing the edited definition's results with the stale
// files still on disk).
func TestCheckpointRefusesChangedDefinition(t *testing.T) {
	ckpt, err := NewCheckpointer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(ckptConfigs(), Options{Checkpoint: ckpt}); err != nil {
		t.Fatal(err)
	}

	// Changing only the adversary's analyzer sampling changes the attacked
	// run's definition (it changes the cut, hence the victims).
	cfgs := ckptConfigs()
	cfgs[1].Attack.SampleFraction = 1.0
	if _, err := Run(cfgs, Options{Checkpoint: ckpt}); err == nil ||
		!strings.Contains(err.Error(), "different experiment definition") {
		t.Fatalf("resume after attack sampling change: got %v, want definition-change error", err)
	}

	// Same names and seeds, different k: every run's definition changed.
	cfgs = ckptConfigs()
	for i := range cfgs {
		cfgs[i].K = 4
	}
	if _, err := Run(cfgs, Options{Checkpoint: ckpt}); err == nil ||
		!strings.Contains(err.Error(), "different experiment definition") {
		t.Fatalf("resume after k change: got %v, want definition-change error", err)
	}

	// The unmodified definition still resumes entirely from disk.
	fresh := 0
	if _, err := Run(ckptConfigs(), Options{Checkpoint: ckpt, Progress: func(ev Event) {
		if !ev.Cached {
			fresh++
		}
	}}); err != nil {
		t.Fatal(err)
	}
	if fresh != 0 {
		t.Fatalf("unchanged definition re-ran %d runs, want 0", fresh)
	}
}

// TestCheckpointRefusesMutatedSpec is the satellite regression: two specs
// can resolve to behaviorally identical configs (same fingerprint) while
// being different files — e.g. only descriptive or not-yet-effective
// fields changed. The digest stored in the checkpoint must still refuse
// the resume; an empty digest (a config built in Go, or a pre-digest
// checkpoint) stays compatible in both directions.
func TestCheckpointRefusesMutatedSpec(t *testing.T) {
	ckpt, err := NewCheckpointer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	withDigest := func(d string) []scenario.Config {
		cfgs := ckptConfigs()[:1]
		cfgs[0].SpecDigest = d
		return cfgs
	}
	if _, err := Run(withDigest("aaaa1111"), Options{Checkpoint: ckpt}); err != nil {
		t.Fatal(err)
	}

	if _, err := Run(withDigest("bbbb2222"), Options{Checkpoint: ckpt}); err == nil ||
		!strings.Contains(err.Error(), "spec") {
		t.Fatalf("resume under mutated spec digest: got %v, want spec-change error", err)
	}

	// Preset-style configs (no digest) replay spec-written checkpoints and
	// vice versa: the fingerprint already guarantees identical results.
	cached := 0
	count := func(ev Event) {
		if ev.Cached {
			cached++
		}
	}
	if _, err := Run(withDigest(""), Options{Checkpoint: ckpt, Progress: count}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(withDigest("aaaa1111"), Options{Checkpoint: ckpt, Progress: count}); err != nil {
		t.Fatal(err)
	}
	if cached != 2 {
		t.Fatalf("digest-compatible resumes replayed %d runs from disk, want 2", cached)
	}
}

// TestCheckpointKeysRunsByExperiment pins that a checkpoint belongs to its
// experiment: two groups of one pooled sweep may each define a run of the
// same name and seed (the catalogue's figure6 and table2 both hold
// SimE/k=5 at seed offset 0) resolved from different spec files. Neither
// may read the other's checkpoint as its own: a fresh directory sweeps
// both, and a second call replays both.
func TestCheckpointKeysRunsByExperiment(t *testing.T) {
	groups := func() []Group {
		a, b := ckptConfigs()[:1], ckptConfigs()[:1]
		a[0].SpecDigest, b[0].SpecDigest = "aaaa1111", "bbbb2222"
		return []Group{{Name: "figureA", Configs: a}, {Name: "tableB", Configs: b}}
	}
	ckpt, err := NewCheckpointer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cached := 0
	opts := Options{Checkpoint: ckpt, Progress: func(ev Event) {
		if ev.Cached {
			cached++
		}
	}}
	documents := func() [][]byte {
		t.Helper()
		sets, err := RunGroups(groups(), opts)
		if err != nil {
			t.Fatal(err)
		}
		docs := make([][]byte, len(sets))
		for i, g := range sets {
			var buf bytes.Buffer
			if err := WriteJSON(&buf, JSONMeta{Experiment: "ckpt"}, g); err != nil {
				t.Fatal(err)
			}
			docs[i] = buf.Bytes()
		}
		return docs
	}
	fresh := documents()
	if cached != 0 {
		t.Fatalf("fresh directory replayed %d runs, want 0", cached)
	}
	if resumed := documents(); cached != 2 || !reflect.DeepEqual(fresh, resumed) {
		t.Fatalf("resume replayed %d runs (want both), documents equal to fresh: %v",
			cached, reflect.DeepEqual(fresh, resumed))
	}
}

func TestCheckpointIgnoresCorruptFile(t *testing.T) {
	ckpt, err := NewCheckpointer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfgs := ckptConfigs()[:1]
	if _, err := Run(cfgs, Options{Checkpoint: ckpt}); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(ckpt.Dir(), "*.ckpt.json"))
	if len(files) != 1 {
		t.Fatalf("got %d files, want 1", len(files))
	}
	if err := os.WriteFile(files[0], []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := 0
	if _, err := Run(cfgs, Options{Checkpoint: ckpt, Progress: func(ev Event) {
		if !ev.Cached {
			fresh++
		}
	}}); err != nil {
		t.Fatal(err)
	}
	if fresh != 1 {
		t.Fatalf("corrupt checkpoint not re-run (fresh=%d)", fresh)
	}
}

// fillNonZero sets every field under v to a distinct non-zero value, and
// fails on a kind it has no rule for — so a Result field of a new shape
// extends this helper instead of slipping past the round-trip test.
func fillNonZero(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	if v.Type() == reflect.TypeOf(id.ID{}) {
		v.Set(reflect.ValueOf(id.Hash(id.DefaultBits, []byte{byte(*n)})))
		return
	}
	switch v.Kind() {
	case reflect.Int, reflect.Int64: // time.Duration included
		v.SetInt(int64(*n))
	case reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float64:
		// n + 0.1 has no exact binary form, so the shortest-decimal
		// encoding has to round-trip for the comparison to hold.
		v.SetFloat(float64(*n) + 0.1)
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			fillNonZero(t, s.Index(i), n)
		}
		v.Set(s)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNonZero(t, v.Field(i), n)
		}
	default:
		t.Fatalf("fillNonZero: no rule for %s", v.Type())
	}
}

// TestCheckpointRoundTripsEveryResultField is the guard the embedded
// wire form needs: a Result with every measurement non-zero — the
// workload counters, the governance outcome and victims of both
// bit-lengths the paper evaluates included, none of which the resume
// test's runs produce — survives Store and Load exactly. Config is the
// job's, and the wall-clock Elapsed and the event check (Fingerprint,
// Events) are dropped, all by contract.
func TestCheckpointRoundTripsEveryResultField(t *testing.T) {
	cfg := ckptConfigs()[0]
	stored := &scenario.Result{Config: cfg, Elapsed: time.Second, Fingerprint: 1, Events: 2}
	v, n := reflect.ValueOf(stored).Elem(), 0
	for i := 0; i < v.NumField(); i++ {
		switch v.Type().Field(i).Name {
		case "Config", "Elapsed", "Fingerprint", "Events":
		default:
			fillNonZero(t, v.Field(i), &n)
		}
	}
	stored.Victims[0].ID = id.Hash(80, []byte("short"))
	stored.Victims[1].ID = id.Hash(160, []byte("long"))

	ckpt, err := NewCheckpointer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Store("", cfg, 0, stored); err != nil {
		t.Fatal(err)
	}
	loaded, ok, err := ckpt.Load("", cfg, 0)
	if err != nil || !ok {
		t.Fatalf("Load = ok %v, err %v; want a replay", ok, err)
	}
	want := *stored
	want.Config, want.Elapsed, want.Fingerprint, want.Events = cfg.WithDefaults(), 0, 0, 0
	if !reflect.DeepEqual(loaded, &want) {
		t.Fatalf("round trip lost a field:\n got %+v\nwant %+v", loaded, &want)
	}
}

// TestCheckpointParentLayoutReRuns pins the upgrade path: testdata holds
// the attacked run of ckptConfigs exactly as the last version with the
// field-by-field layout (commit 248e82e) wrote it. It is this job's file
// under this job's fingerprint, yet it must load as absent — the run
// re-executes, the file is rewritten in the current layout, and both the
// re-run and the following resume serialize to the fresh sweep's bytes.
func TestCheckpointParentLayoutReRuns(t *testing.T) {
	cfgs := ckptConfigs()[1:]
	document := func(opts Options) []byte {
		t.Helper()
		sets, err := Run(cfgs, opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, JSONMeta{Experiment: "ckpt"}, sets); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	fresh := document(Options{})

	old, err := os.ReadFile(filepath.Join("testdata", "parent_layout_ckpt_attacked_r0_s3.ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(old, []byte(`"points":[`)) || bytes.Contains(old, []byte(`"result"`)) {
		t.Fatal("fixture is not in the parent's layout")
	}
	ckpt, err := NewCheckpointer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(ckpt.Dir(), "ckpt_attacked_r0_s3.ckpt.json")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}

	cached := 0
	opts := Options{Checkpoint: ckpt, Progress: func(ev Event) {
		if ev.Cached {
			cached++
		}
	}}
	if got := document(opts); cached != 0 || !bytes.Equal(got, fresh) {
		t.Fatalf("over a parent-layout checkpoint: %d runs replayed (want 0), document equal to fresh: %v",
			cached, bytes.Equal(got, fresh))
	}
	rewritten, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(rewritten, []byte(`"result":{`)) {
		t.Fatalf("checkpoint not rewritten in the current layout: %s", rewritten)
	}
	if got := document(opts); cached != 1 || !bytes.Equal(got, fresh) {
		t.Fatalf("resume after the rewrite: %d runs replayed (want 1), document equal to fresh: %v",
			cached, bytes.Equal(got, fresh))
	}
}
