package sweep

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"kadre/internal/attack"
	"kadre/internal/connectivity"
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

// TestCheckpointEditReRunsChangedRuns pins resume across an edited
// experiment: a run whose key the edit changed misses, executes again and
// never replays the old result, while every run the edit left alone
// replays. The unedited definition's files stay addressable, so it still
// resumes entirely from disk afterwards.
func TestCheckpointEditReRunsChangedRuns(t *testing.T) {
	ckpt, err := NewCheckpointer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var fresh, cached int
	opts := Options{Checkpoint: ckpt, Progress: func(ev Event) {
		if ev.Cached {
			cached++
		} else {
			fresh++
		}
	}}
	groupDocument(t, ckptConfigs(), opts)

	// Changing only the adversary's analyzer sampling changes the attacked
	// run (it changes the cut, hence the victims).
	sampled := ckptConfigs()
	sampled[1].Attack.SampleFraction = 1.0
	// Same names and seeds, different k: every run changed.
	smallK := ckptConfigs()
	for i := range smallK {
		smallK[i].K = 4
	}
	for _, tt := range []struct {
		name          string
		cfgs          []scenario.Config
		fresh, cached int
	}{
		{"attack sampling edited", sampled, 1, 1},
		{"k edited", smallK, 2, 0},
		{"unedited", ckptConfigs(), 0, 2},
	} {
		fresh, cached = 0, 0
		got := groupDocument(t, tt.cfgs, opts)
		if fresh != tt.fresh || cached != tt.cached {
			t.Errorf("%s: %d fresh / %d replayed runs, want %d/%d", tt.name, fresh, cached, tt.fresh, tt.cached)
		}
		if want := groupDocument(t, tt.cfgs, Options{}); !bytes.Equal(got, want) {
			t.Errorf("%s: resumed document differs from a sweep without checkpoints", tt.name)
		}
	}
}

// TestCheckpointRelabelReplays pins the other side of a spec edit: a name
// labels a run and is no part of it, so a sweep whose runs were all
// renamed replays every one from disk, writes no new checkpoint, and
// still writes the document a sweep without checkpoints writes.
func TestCheckpointRelabelReplays(t *testing.T) {
	ckpt, err := NewCheckpointer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var fresh, cached int
	opts := Options{Checkpoint: ckpt, Progress: func(ev Event) {
		if ev.Cached {
			cached++
		} else {
			fresh++
		}
	}}
	groupDocument(t, ckptConfigs(), opts)

	renamed := ckptConfigs()
	for i := range renamed {
		renamed[i].Name += "/renamed"
	}
	fresh, cached = 0, 0
	got := groupDocument(t, renamed, opts)
	if fresh != 0 || cached != 2 {
		t.Errorf("%d fresh / %d replayed runs, want 0/2", fresh, cached)
	}
	if files, _ := filepath.Glob(filepath.Join(ckpt.Dir(), "*.ckpt.json")); len(files) != 2 {
		t.Errorf("got %d checkpoint files after the relabelled sweep, want 2", len(files))
	}
	if want := groupDocument(t, renamed, Options{}); !bytes.Equal(got, want) {
		t.Error("replayed document differs from a sweep without checkpoints")
	}
}

// TestSharedRunExecutesOnce pins what a run key buys a pooled sweep: a run
// two groups declare — under different names, as a spec may — executes
// once and leaves one checkpoint, and each group's document equals the
// one a sweep of that group alone writes. A second sweep replays every
// run. A governance policy is outside the key but reaches the Result, so
// a copy under another policy still runs on its own.
func TestSharedRunExecutesOnce(t *testing.T) {
	shared := ckptConfigs()[0]
	shared.Name = "tableB/plain"
	ungoverned := ckptConfigs()[0]
	ungoverned.Name = "tableC/ungoverned"
	ungoverned.Governance = connectivity.GovernancePolicy{MaxSlotSlack: -1}
	groups := []Group{
		{Name: "figureA", Configs: ckptConfigs()},
		{Name: "tableB", Configs: []scenario.Config{shared}},
		{Name: "tableC", Configs: []scenario.Config{ungoverned}},
	}
	alone := make([][]byte, len(groups))
	for i, g := range groups {
		alone[i] = groupDocument(t, g.Configs, Options{})
	}
	sweep := func(groups []Group, opts Options, runs, replays int) {
		t.Helper()
		var events, cached int
		opts.Progress = func(ev Event) {
			events++
			if ev.Cached {
				cached++
			}
			if ev.Total != runs {
				t.Errorf("Event.Total %d, want %d distinct runs", ev.Total, runs)
			}
		}
		sets, err := RunGroups(context.Background(), groups, opts)
		if err != nil {
			t.Fatal(err)
		}
		if events != runs || cached != replays {
			t.Fatalf("%d runs, %d replayed; want %d runs, %d replayed", events, cached, runs, replays)
		}
		for i, g := range sets {
			var buf bytes.Buffer
			if err := WriteJSON(&buf, JSONMeta{Experiment: "ckpt"}, g); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), alone[i]) {
				t.Errorf("group %s's document differs from a sweep of it alone", groups[i].Name)
			}
			for _, rs := range g {
				if r := rs.Reps[0]; r.Config.Name != rs.Config.Name {
					t.Errorf("group %s: run %s's result carries the config of %s", groups[i].Name, rs.Config.Name, r.Config.Name)
				}
			}
		}
	}
	sweep(groups, Options{}, 3, 0)

	// A checkpoint directory does not serve sweeps that vary the policy
	// (see Checkpointer), so the checkpointed passes leave tableC out.
	ckpt, err := NewCheckpointer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, replays := range []int{0, 2} {
		sweep(groups[:2], Options{Checkpoint: ckpt}, 2, replays)
		files, err := filepath.Glob(filepath.Join(ckpt.Dir(), "*.ckpt.json"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != 2 {
			t.Fatalf("%d checkpoint files, want 2 (one per key)", len(files))
		}
	}
}

// groupDocument is the JSON document of a sweep of cfgs.
func groupDocument(t *testing.T, cfgs []scenario.Config, opts Options) []byte {
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
	if err := ckpt.Store(cfg, stored); err != nil {
		t.Fatal(err)
	}
	loaded, ok := ckpt.Load(cfg)
	if !ok {
		t.Fatal("Load found no checkpoint; want a replay")
	}
	want := *stored
	want.Config, want.Elapsed, want.Fingerprint, want.Events = cfg.WithDefaults(), 0, 0, 0
	if !reflect.DeepEqual(loaded, &want) {
		t.Fatalf("round trip lost a field:\n got %+v\nwant %+v", loaded, &want)
	}
}

// TestCheckpointParentLayoutReRuns pins the upgrade path: testdata holds
// the attacked run of ckptConfigs exactly as the last version with the
// field-by-field layout (commit 248e82e) wrote it. Lying at this job's
// address, it must still load as absent — it holds no key — so the run
// re-executes, the file is rewritten in the current layout, and both the
// re-run and the following resume serialize to the fresh sweep's bytes.
func TestCheckpointParentLayoutReRuns(t *testing.T) {
	cfgs := ckptConfigs()[1:]
	fresh := groupDocument(t, cfgs, Options{})

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
	path := ckpt.path(Key(cfgs[0]))
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}

	cached := 0
	opts := Options{Checkpoint: ckpt, Progress: func(ev Event) {
		if ev.Cached {
			cached++
		}
	}}
	if got := groupDocument(t, cfgs, opts); cached != 0 || !bytes.Equal(got, fresh) {
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
	if got := groupDocument(t, cfgs, opts); cached != 1 || !bytes.Equal(got, fresh) {
		t.Fatalf("resume after the rewrite: %d runs replayed (want 1), document equal to fresh: %v",
			cached, bytes.Equal(got, fresh))
	}
}
