package workload

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// validSpecJSON is a minimal well-formed spec the rejection tests mutate.
const validSpecJSON = `{
  "version": 1,
  "id": "t",
  "runs": [{"name": "r0", "k": 5}]
}`

func TestDecodeValidSpec(t *testing.T) {
	sp, err := Decode([]byte(validSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	if sp.ID != "t" || len(sp.Runs) != 1 || sp.Runs[0].Name != "r0" || *sp.Runs[0].K != 5 {
		t.Fatalf("decoded %+v", sp)
	}
}

// decodeRejections are malformed documents Decode must refuse; FuzzDecode
// seeds its corpus from them.
var decodeRejections = []struct {
	name string
	in   string
	want string // substring of the error
}{
	{"unknown top-level field", `{"version":1,"id":"t","bogus":1,"runs":[{"name":"r"}]}`, "bogus"},
	{"unknown run field", `{"version":1,"id":"t","runs":[{"name":"r","kk":5}]}`, "kk"},
	{"unknown nested field", `{"version":1,"id":"t","runs":[{"name":"r","arrivals":{"rate_per_minute":1,"burst":2}}]}`, "burst"},
	{"missing version", `{"id":"t","runs":[{"name":"r"}]}`, "version"},
	{"future version", `{"version":2,"id":"t","runs":[{"name":"r"}]}`, "version 2"},
	{"missing id", `{"version":1,"runs":[{"name":"r"}]}`, "id"},
	{"no runs", `{"version":1,"id":"t"}`, "no runs"},
	{"unnamed run", `{"version":1,"id":"t","runs":[{"k":5}]}`, "no name"},
	{"duplicate run names", `{"version":1,"id":"t","runs":[{"name":"r"},{"name":"r"}]}`, "duplicate"},
	{"trailing document", validSpecJSON + `{"version":1}`, "trailing"},
	{"negative k", `{"version":1,"id":"t","runs":[{"name":"r","k":-1}]}`, "negative"},
	{"zero k", `{"version":1,"id":"t","runs":[{"name":"r","k":0}]}`, "k 0"},
	{"zero alpha", `{"version":1,"id":"t","runs":[{"name":"r","alpha":0}]}`, "alpha 0"},
	{"zero bits", `{"version":1,"id":"t","runs":[{"name":"r","bits":0}]}`, "bits 0"},
	{"zero staleness", `{"version":1,"id":"t","runs":[{"name":"r","staleness":0}]}`, "staleness 0"},
	{"zero setup", `{"version":1,"id":"t","runs":[{"name":"r","setup_minutes":0}]}`, "setup_minutes 0"},
	{"zero stabilize", `{"version":1,"id":"t","runs":[{"name":"r","stabilize_minutes":0}]}`, "stabilize_minutes 0"},
	{"zero snapshot", `{"version":1,"id":"t","runs":[{"name":"r","snapshot_minutes":0}]}`, "snapshot_minutes 0"},
	{"zero default inherited", `{"version":1,"id":"t","defaults":{"k":0},"runs":[{"name":"r"}]}`, "k 0"},
	{"negative size", `{"version":1,"id":"t","runs":[{"name":"r","size":-3}]}`, "size -3"},
	{"unknown symbolic size", `{"version":1,"id":"t","runs":[{"name":"r","size":"huge"}]}`, "huge"},
	{"fractional size", `{"version":1,"id":"t","runs":[{"name":"r","size":2.5}]}`, "spec"},
	{"boolean size", `{"version":1,"id":"t","runs":[{"name":"r","size":true}]}`, "spec"},
	{"negative lookups", `{"version":1,"id":"t","runs":[{"name":"r","lookups_per_minute":-1}]}`, "lookups_per_minute"},
	{"zero key pool", `{"version":1,"id":"t","runs":[{"name":"r","key_pool":0}]}`, "key_pool"},
	{"sample fraction over 1", `{"version":1,"id":"t","runs":[{"name":"r","sample_fraction":1.5}]}`, "sample_fraction"},
	{"churn_minutes vs drain", `{"version":1,"id":"t","runs":[{"name":"r","churn_minutes":5,"drain_churn":true}]}`, "mutually exclusive"},
	{"attack without strategy", `{"version":1,"id":"t","runs":[{"name":"r","attack":{"budget":3}}]}`, "strategy"},
	{"attack zero budget", `{"version":1,"id":"t","runs":[{"name":"r","attack":{"strategy":"random","budget":0}}]}`, "budget"},
	{"attack negative interval", `{"version":1,"id":"t","runs":[{"name":"r","attack":{"strategy":"random","interval_minutes":-1}}]}`, "interval_minutes"},
	{"unknown session dist", `{"version":1,"id":"t","runs":[{"name":"r","sessions":{"dist":"uniform","mean_minutes":5},"arrivals":{"rate_per_minute":1}}]}`, "dist"},
	{"lognormal without mean", `{"version":1,"id":"t","runs":[{"name":"r","sessions":{"dist":"lognormal"},"arrivals":{"rate_per_minute":1}}]}`, "mean_minutes"},
	{"lognormal with pareto knobs", `{"version":1,"id":"t","runs":[{"name":"r","sessions":{"dist":"lognormal","mean_minutes":5,"alpha":2},"arrivals":{"rate_per_minute":1}}]}`, "not min_minutes/alpha"},
	{"pareto without alpha", `{"version":1,"id":"t","runs":[{"name":"r","sessions":{"dist":"pareto","min_minutes":2},"arrivals":{"rate_per_minute":1}}]}`, "alpha"},
	{"zero arrival rate", `{"version":1,"id":"t","runs":[{"name":"r","arrivals":{"rate_per_minute":0}}]}`, "rate_per_minute"},
	{"diurnal amplitude over 1", `{"version":1,"id":"t","runs":[{"name":"r","arrivals":{"rate_per_minute":1,"diurnal":{"period_minutes":60,"amplitude":1.5}}}]}`, "amplitude"},
	{"diurnal zero period", `{"version":1,"id":"t","runs":[{"name":"r","arrivals":{"rate_per_minute":1,"diurnal":{"period_minutes":0,"amplitude":0.5}}}]}`, "period"},
	{"zipf_s at 1", `{"version":1,"id":"t","runs":[{"name":"r","popularity":{"zipf_s":1}}]}`, "zipf_s"},
	{"zipf_v below 1", `{"version":1,"id":"t","runs":[{"name":"r","popularity":{"zipf_s":1.2,"zipf_v":0.5}}]}`, "zipf_v"},
	{"flash crowd without joins", `{"version":1,"id":"t","runs":[{"name":"r","flash_crowds":[{"at_minutes":5}]}]}`, "joins"},
	{"flash crowd negative time", `{"version":1,"id":"t","runs":[{"name":"r","flash_crowds":[{"at_minutes":-1,"joins":3}]}]}`, "at_minutes"},
	{"empty trace block", `{"version":1,"id":"t","runs":[{"name":"r","trace":{}}]}`, "trace"},
	{"trace path and events", `{"version":1,"id":"t","runs":[{"name":"r","churn_minutes":5,"trace":{"path":"t.jsonl","events":[{"t_min":1,"op":"join"}]}}]}`, "not both"},
	{"trace event bad op", `{"version":1,"id":"t","runs":[{"name":"r","trace":{"events":[{"t_min":1,"op":"crash"}]}}]}`, "op"},
	{"inline trace leave before join", `{"version":1,"id":"t","runs":[{"name":"r","churn_minutes":5,"trace":{"events":[{"t_min":1,"op":"leave","node":"ghost"}]}}]}`, "without a prior join"},
	{"inline trace double join", `{"version":1,"id":"t","defaults":{"trace":{"events":[{"t_min":2,"op":"join","node":"a"},{"t_min":1,"op":"join","node":"a"}]}},"runs":[{"name":"r","churn_minutes":5}]}`, "already live"},
	{"trace event negative time", `{"version":1,"id":"t","runs":[{"name":"r","trace":{"events":[{"t_min":-1,"op":"join"}]}}]}`, "t_min"},
	{"not json", `version: 1`, "spec"},
}

func TestDecodeRejections(t *testing.T) {
	for _, tt := range decodeRejections {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Decode([]byte(tt.in))
			if err == nil {
				t.Fatalf("Decode accepted %s", tt.in)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

// TestDefaultsMergeAndRunOverride pins Merge: a run field wins, an unset
// one falls back to the defaults block, and validation runs on the
// merged view (an invalid default surfaces even when declared globally).
func TestDefaultsMergeAndRunOverride(t *testing.T) {
	sp, err := Decode([]byte(`{
	  "version": 1, "id": "t",
	  "defaults": {"k": 10, "staleness": 1, "churn": "1/1"},
	  "runs": [
	    {"name": "a"},
	    {"name": "b", "k": 20, "churn": "2/2"}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	a := Merge(sp.Defaults, sp.Runs[0])
	b := Merge(sp.Defaults, sp.Runs[1])
	if *a.K != 10 || *a.Churn != "1/1" || *a.Staleness != 1 {
		t.Fatalf("defaults did not fill run a: %+v", a)
	}
	if *b.K != 20 || *b.Churn != "2/2" || *b.Staleness != 1 {
		t.Fatalf("run b overrides wrong: k=%d churn=%s", *b.K, *b.Churn)
	}

	// An out-of-range default is caught through every run it reaches.
	if _, err := Decode([]byte(`{
	  "version": 1, "id": "t",
	  "defaults": {"sample_fraction": 2},
	  "runs": [{"name": "a"}]
	}`)); err == nil || !strings.Contains(err.Error(), "sample_fraction") {
		t.Fatalf("invalid default survived merge: %v", err)
	}
}

func TestGeneratorsValidateAgainstRun(t *testing.T) {
	arr := Generators{Arrivals: &ArrivalsSpec{RatePerMinute: 1}}
	if err := arr.Validate(30, false); err != nil {
		t.Fatalf("plain arrivals: %v", err)
	}
	// Sessions without any join source have nothing to apply to.
	s := Generators{Sessions: &SessionsSpec{Dist: "lognormal", MeanMinutes: 5}}
	if err := s.Validate(30, false); err == nil || !strings.Contains(err.Error(), "join source") {
		t.Fatalf("orphan sessions: %v", err)
	}
	// Popularity skews the traffic key picker; without traffic it is dead.
	p := Generators{Popularity: &PopularitySpec{ZipfS: 1.2}}
	if err := p.Validate(30, true); err != nil {
		t.Fatalf("popularity with traffic: %v", err)
	}
	if err := p.Validate(30, false); err == nil || !strings.Contains(err.Error(), "traffic") {
		t.Fatalf("popularity without traffic: %v", err)
	}
	// Events past the run end would silently never fire.
	fc := Generators{FlashCrowds: []FlashCrowdSpec{{AtMinutes: 40, Joins: 5}}}
	if err := fc.Validate(30, false); err == nil || !strings.Contains(err.Error(), "past the run end") {
		t.Fatalf("late flash crowd: %v", err)
	}
	tr := Generators{Trace: &TraceSpec{Events: []TraceEvent{{TMin: 99, Op: "join"}}}}
	if err := tr.Validate(30, false); err == nil || !strings.Contains(err.Error(), "past the run end") {
		t.Fatalf("late trace event: %v", err)
	}
}

func TestCanonEmptyForZeroBundle(t *testing.T) {
	if c := (Generators{}).Canon(); c != "" {
		t.Fatalf("zero bundle canon = %q, want empty (fingerprint compatibility)", c)
	}
	g := Generators{Arrivals: &ArrivalsSpec{RatePerMinute: 2}}
	if g.Canon() == "" || g.Canon() != g.Canon() {
		t.Fatal("non-empty bundle canon must be stable and non-empty")
	}
}

// TestGeneratorsWithDefaults pins the one defaulting step of the
// generative bundle: it fills a lognormal's sigma, zipf_v and a flash
// crowd's window, leaves set values alone, is a fixed point, and copies
// what it fills instead of writing through the pointers the runs of one
// spec share.
func TestGeneratorsWithDefaults(t *testing.T) {
	sessions := &SessionsSpec{Dist: "lognormal", MeanMinutes: 5}
	pareto := &SessionsSpec{Dist: "pareto", MinMinutes: 1, Alpha: 1.5}
	popularity := &PopularitySpec{ZipfS: 1.3}
	crowds := []FlashCrowdSpec{{AtMinutes: 3, Joins: 2, Sessions: sessions}, {AtMinutes: 4, Joins: 1, WindowMinutes: 2, Sessions: pareto}}
	g := Generators{Sessions: sessions, Popularity: popularity, FlashCrowds: crowds}
	d := g.WithDefaults()
	if d.Sessions.Sigma != 1 || d.Popularity.ZipfV != 1 || d.FlashCrowds[0].WindowMinutes != 1 || d.FlashCrowds[0].Sessions.Sigma != 1 {
		t.Fatalf("defaults not filled: %s", d.Canon())
	}
	if d.FlashCrowds[1].WindowMinutes != 2 || d.FlashCrowds[1].Sessions != pareto {
		t.Fatalf("set values rewritten: %+v", d.FlashCrowds[1])
	}
	if sessions.Sigma != 0 || popularity.ZipfV != 0 || crowds[0].WindowMinutes != 0 {
		t.Fatal("WithDefaults wrote through a shared pointer")
	}
	if !reflect.DeepEqual(d.WithDefaults(), d) {
		t.Fatal("WithDefaults is not a fixed point")
	}
	if spelled := (Generators{
		Sessions:    &SessionsSpec{Dist: "lognormal", MeanMinutes: 5, Sigma: 1},
		Popularity:  &PopularitySpec{ZipfS: 1.3, ZipfV: 1},
		FlashCrowds: []FlashCrowdSpec{{AtMinutes: 3, Joins: 2, WindowMinutes: 1, Sessions: &SessionsSpec{Dist: "lognormal", MeanMinutes: 5, Sigma: 1}}, crowds[1]},
	}).WithDefaults(); spelled.Canon() != d.Canon() {
		t.Fatalf("defaults spelled out differ:\n%s\n%s", spelled.Canon(), d.Canon())
	}
}

// TestCanonDropsLoadedTracePath: a loaded trace is keyed by its events,
// so the file it came from and the same events inline are one run.
func TestCanonDropsLoadedTracePath(t *testing.T) {
	events := []TraceEvent{{TMin: 1, Op: "join"}}
	fromFile := Generators{Trace: &TraceSpec{Path: "trace.jsonl", Events: events}}
	inline := Generators{Trace: &TraceSpec{Events: events}}
	if fromFile.Canon() != inline.Canon() {
		t.Fatalf("path changes the canon:\n%s\n%s", fromFile.Canon(), inline.Canon())
	}
	if fromFile.Trace.Path != "trace.jsonl" {
		t.Fatal("Canon rewrote the bundle's trace")
	}
}

// TestCheckNamesFirstBadFieldInOrder pins that a run with several bad
// fields is always reported by the first in declaration order, however
// often it is decoded.
func TestCheckNamesFirstBadFieldInOrder(t *testing.T) {
	doc := `{"version":1,"id":"t","runs":[{"name":"r","snapshot_minutes":-1,"stores_per_minute":-1,"churn_minutes":-1,"staleness":-1,"bits":-1,"alpha":-1,"k":-1,"size":-1}]}`
	const want = `workload: spec "t" run "r": size -1 is negative`
	for i := 0; i < 50; i++ {
		if _, err := Decode([]byte(doc)); err == nil || err.Error() != want {
			t.Fatalf("decode %d: err = %v, want %q", i, err, want)
		}
	}
}

// TestSizeRoundTrip pins the size encoding: a count or a scale name
// decodes into Size and encodes back to exactly the bytes it came from.
func TestSizeRoundTrip(t *testing.T) {
	for _, tt := range []struct {
		in   string
		want Size
	}{
		{`250`, Size{Nodes: 250}},
		{`"small"`, Size{Name: "small"}},
		{`"large"`, Size{Name: "large"}},
	} {
		var got Size
		if err := json.Unmarshal([]byte(tt.in), &got); err != nil {
			t.Fatalf("%s: %v", tt.in, err)
		}
		if got != tt.want {
			t.Fatalf("%s decoded to %+v, want %+v", tt.in, got, tt.want)
		}
		out, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != tt.in {
			t.Fatalf("%s encoded back as %s", tt.in, out)
		}
	}
	sp, err := Decode([]byte(`{"version":1,"id":"t","defaults":{"size":"large"},"runs":[{"name":"a"},{"name":"b","size":30}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := Merge(sp.Defaults, sp.Runs[0]), Merge(sp.Defaults, sp.Runs[1]); a.Size.Name != "large" || *b.Size != (Size{Nodes: 30}) {
		t.Fatalf("merged sizes %+v and %+v", *a.Size, *b.Size)
	}
}

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadResolvesTraceRelativeToSpec(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "trace.jsonl", `
{"t_min": 1, "op": "join", "node": "a"}
{"t_min": 2, "op": "join"}
{"t_min": 5, "op": "leave", "node": "a"}
{"t_min": 6, "op": "leave"}
`)
	spec := writeFile(t, dir, "spec.json", `{
	  "version": 1, "id": "traced",
	  "runs": [{"name": "r", "churn_minutes": 10, "trace": {"path": "trace.jsonl"}}]
	}`)
	sp, err := Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	evs := sp.Runs[0].Trace.Events
	if len(evs) != 4 || evs[0].Node != "a" || evs[3].Op != "leave" {
		t.Fatalf("resolved events %+v", evs)
	}
}

// traceRejections are malformed traces LoadTrace must refuse;
// FuzzLoadTrace seeds from the same table.
var traceRejections = []struct {
	name    string
	content string
	want    string
}{
	{"bad json line", "{\"t_min\": 1, \"op\": \"join\"}\nnot json\n", "line 2"},
	{"unknown field", `{"t_min": 1, "op": "join", "why": "x"}`, "why"},
	{"bad op", `{"t_min": 1, "op": "crash"}`, "op"},
	{"negative time", `{"t_min": -2, "op": "join"}`, "t_min"},
	{"empty file", "\n\n", "no events"},
	{"leave before join", `{"t_min": 1, "op": "leave", "node": "a"}`, "without a prior join"},
	{"double join", "{\"t_min\": 1, \"op\": \"join\", \"node\": \"a\"}\n{\"t_min\": 2, \"op\": \"join\", \"node\": \"a\"}\n", "already live"},
	{"out-of-order leave", "{\"t_min\": 9, \"op\": \"join\", \"node\": \"a\"}\n{\"t_min\": 3, \"op\": \"leave\", \"node\": \"a\"}\n", "without a prior join"},
}

func TestLoadTraceErrors(t *testing.T) {
	dir := t.TempDir()
	for _, tt := range traceRejections {
		t.Run(tt.name, func(t *testing.T) {
			path := writeFile(t, dir, "t.jsonl", tt.content)
			_, err := LoadTrace(path)
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("LoadTrace = %v, want %q", err, tt.want)
			}
		})
	}
	if _, err := LoadTrace(filepath.Join(dir, "absent.jsonl")); err == nil {
		t.Fatal("missing trace file must error")
	}
	// A spec referencing a missing trace fails at load, not at run time.
	spec := writeFile(t, dir, "spec.json", `{
	  "version": 1, "id": "t",
	  "runs": [{"name": "r", "trace": {"path": "absent.jsonl"}}]
	}`)
	if _, err := Load(spec); err == nil || !strings.Contains(err.Error(), "absent.jsonl") {
		t.Fatalf("spec with missing trace: %v", err)
	}
}
