package sweep

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"kadre/internal/id"
	"kadre/internal/scenario"
	"kadre/internal/workload"
)

// fingerprintExempt names the Config fields Fingerprint leaves out, each
// with its reason. Every other field is part of a run's identity.
var fingerprintExempt = map[string]string{
	"Name":       "labels the run in reports; one run under two names is one run",
	"Seed":       "keyed separately: Key appends the effective seed",
	"Workers":    "results are independent of the analysis worker count",
	"Governance": "maintenance only; RunGroups keys it beside the Key",
	"MinOnly":    "chooses which measurements are paid for, not their values; RunGroups keys it beside the Key",
	"OnSnapshot": "observation only",
}

// leafExempt names the leaves under keyed fields that the key leaves out,
// each with its reason.
var leafExempt = map[string]string{
	"Gen.Trace.Path": "a loaded trace is keyed by its events, not the file they came from",
}

// keyedOn names, for a field that keys a run only in some configs, the
// setting that makes it count.
var keyedOn = map[string]func(*scenario.Config){
	"Workload": func(c *scenario.Config) { c.Traffic = true }, // rates shape only a traffic run
}

// leafFiller sets every leaf under a value to a non-zero value numbered
// by its position, and the leaf numbered bump to a different one. A kind
// without a rule fails the test, so a field of a new shape extends this
// helper instead of slipping past the completeness test.
type leafFiller struct {
	t      *testing.T
	n      int
	bump   int
	bumped string // path of the bumped leaf
}

func (f *leafFiller) fill(v reflect.Value, path string) {
	f.t.Helper()
	switch {
	case v.Kind() == reflect.Struct && v.Type() != reflect.TypeOf(id.ID{}):
		for i := 0; i < v.NumField(); i++ {
			f.fill(v.Field(i), path+"."+v.Type().Field(i).Name)
		}
		return
	case v.Kind() == reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		f.fill(v.Elem(), path)
		return
	case v.Kind() == reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			f.fill(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
		return
	}
	f.n++
	x := f.n
	if x == f.bump {
		x += 1000
		f.bumped = path
	}
	switch v.Kind() {
	case reflect.Struct: // id.ID
		v.Set(reflect.ValueOf(id.Hash(id.DefaultBits, []byte(fmt.Sprint(x)))))
	case reflect.Int, reflect.Int64: // time.Duration, simnet.LossLevel included
		v.SetInt(int64(x))
	case reflect.Float64:
		v.SetFloat(float64(x) + 0.5)
	case reflect.String:
		v.SetString(fmt.Sprint("s", x))
	case reflect.Bool:
		v.SetBool(x != f.bump+1000)
	case reflect.Func:
		v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value { return nil }))
	default:
		f.t.Fatalf("leafFiller: no rule for %s at %s", v.Type(), path)
	}
}

// TestFingerprintCoversEveryField is the guard a run key needs: a field
// added to scenario.Config either changes the fingerprint of the
// effective config (Key's) — set from zero, and every leaf under it
// changed one at a time in a fully set config — or is named in
// fingerprintExempt with its reason, and setting an exempt field changes
// nothing. A field that shapes a run but escapes its key would let a
// checkpoint replay, or RunGroups share, a run that is not the same.
// Workload is varied on a traffic run, the only kind it shapes.
func TestFingerprintCoversEveryField(t *testing.T) {
	typ := reflect.TypeOf(scenario.Config{})
	for name := range fingerprintExempt {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("exempt field %s is not a scenario.Config field", name)
		}
	}
	effective := func(cfg scenario.Config) string { return Fingerprint(cfg.WithDefaults()) }
	// set returns a config with the named fields' leaves set, numbered
	// from first+1.
	set := func(first, bump int, fields func(name string) bool) (scenario.Config, *leafFiller) {
		var cfg scenario.Config
		f := &leafFiller{t: t, n: first, bump: bump}
		v := reflect.ValueOf(&cfg).Elem()
		for i := 0; i < typ.NumField(); i++ {
			if name := typ.Field(i).Name; fields(name) {
				f.fill(v.Field(i), name)
			}
		}
		return cfg, f
	}
	keyed := func(name string) bool { _, ok := fingerprintExempt[name]; return !ok }

	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		var base scenario.Config
		// Numbered past every default (a lone leaf numbered 1 would set
		// Loss to LossNone, the default).
		cfg, _ := set(100, 0, func(n string) bool { return n == name })
		if on := keyedOn[name]; on != nil {
			on(&base)
			on(&cfg)
		}
		if changed := effective(cfg) != effective(base); changed != keyed(name) {
			t.Errorf("setting %s changes the key: %v; exempt: %v", name, changed, !keyed(name))
		}
	}

	full, f := set(0, 0, keyed)
	want := effective(full)
	for bump := 1; bump <= f.n; bump++ {
		cfg, g := set(0, bump, keyed)
		_, exempt := leafExempt[g.bumped]
		if changed := effective(cfg) != want; changed == exempt {
			t.Errorf("changing %s changes the key: %v; exempt: %v", g.bumped, changed, exempt)
		}
	}
	exempt, g := full, &leafFiller{t: t}
	for name := range fingerprintExempt {
		g.fill(reflect.ValueOf(&exempt).Elem().FieldByName(name), name)
	}
	if got := effective(exempt); got != want {
		t.Errorf("setting the exempt fields changes the key:\n%s\n%s", want, got)
	}
}

// TestKeyTracksSpecEdits holds the run key to the spec file a run comes
// from: editing a run field, or the trace file a run replays, changes the
// key of that run alone, and editing what only labels — the spec's id and
// title, a run's name — changes no key.
func TestKeyTracksSpecEdits(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	keys := func(spec, trace string) []string {
		t.Helper()
		write("spec.json", spec)
		write("trace.jsonl", trace)
		sp, err := workload.Load(filepath.Join(dir, "spec.json"))
		if err != nil {
			t.Fatal(err)
		}
		exp, err := scenario.FromSpec(sp, scenario.TinyScale, 1)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, cfg := range exp.Configs {
			out = append(out, Key(cfg))
		}
		return out
	}
	const (
		spec  = `{"version":1,"id":"%s","title":"%s","runs":[{"name":"%s","k":%d},{"name":"traced","churn_minutes":10,"trace":{"path":"trace.jsonl"}}]}`
		trace = "{\"t_min\": 1, \"op\": \"join\", \"node\": \"a\"}\n{\"t_min\": %d, \"op\": \"leave\", \"node\": \"a\"}\n"
	)
	base := keys(fmt.Sprintf(spec, "e", "T", "plain", 5), fmt.Sprintf(trace, 5))
	for _, tt := range []struct {
		name        string
		spec, trace string
		changed     [2]bool
	}{
		{"relabelled", fmt.Sprintf(spec, "e2", "T2", "renamed", 5), fmt.Sprintf(trace, 5), [2]bool{false, false}},
		{"k edited", fmt.Sprintf(spec, "e", "T", "plain", 6), fmt.Sprintf(trace, 5), [2]bool{true, false}},
		{"trace edited", fmt.Sprintf(spec, "e", "T", "plain", 5), fmt.Sprintf(trace, 6), [2]bool{false, true}},
	} {
		got := keys(tt.spec, tt.trace)
		for i := range got {
			if changed := got[i] != base[i]; changed != tt.changed[i] {
				t.Errorf("%s: run %d's key changed: %v, want %v", tt.name, i, changed, tt.changed[i])
			}
		}
	}
}

// TestKeySpellingsOfOneRun holds the key to the run that executes: two
// spellings of one run share a key, and a different run gets its own.
// Each case is one spec run's fields, resolved at tiny scale.
func TestKeySpellingsOfOneRun(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "trace.jsonl"), []byte(`{"t_min": 1, "op": "join"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	key := func(run string) string {
		t.Helper()
		path := filepath.Join(dir, "spec.json")
		doc := `{"version":1,"id":"e","runs":[{"name":"r",` + run + `}]}`
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		sp, err := workload.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := scenario.FromSpec(sp, scenario.TinyScale, 1)
		if err != nil {
			t.Fatal(err)
		}
		return Key(exp.Configs[0])
	}
	const (
		arrivals = `"churn_minutes":10,"arrivals":{"rate_per_minute":1}`
		traffic  = `"traffic":true,"churn":"1/1"`
	)
	for _, tt := range []struct {
		name string
		a, b string
		same bool
	}{
		{"paper traffic rates spelled out", traffic,
			traffic + `,"lookups_per_minute":10,"stores_per_minute":1,"key_pool":256`, true},
		{"traffic rates without traffic", `"churn":"1/1"`, `"churn":"1/1","lookups_per_minute":5`, true},
		{"another traffic rate", traffic, traffic + `,"lookups_per_minute":5`, false},
		{"lookups off", traffic, traffic + `,"lookups_per_minute":0`, false},
		{"lognormal sigma 1", arrivals + `,"sessions":{"dist":"lognormal","mean_minutes":5}`,
			arrivals + `,"sessions":{"dist":"lognormal","mean_minutes":5,"sigma":1}`, true},
		{"another sigma", arrivals + `,"sessions":{"dist":"lognormal","mean_minutes":5}`,
			arrivals + `,"sessions":{"dist":"lognormal","mean_minutes":5,"sigma":2}`, false},
		{"zipf_v 1", traffic + `,"popularity":{"zipf_s":1.5}`, traffic + `,"popularity":{"zipf_s":1.5,"zipf_v":1}`, true},
		{"flash window 1", `"flash_crowds":[{"at_minutes":5,"joins":2}]`,
			`"flash_crowds":[{"at_minutes":5,"joins":2,"window_minutes":1}]`, true},
		{"trace file or inline", `"churn_minutes":10,"trace":{"path":"trace.jsonl"}`,
			`"churn_minutes":10,"trace":{"events":[{"t_min":1,"op":"join"}]}`, true},
	} {
		if same := key(tt.a) == key(tt.b); same != tt.same {
			t.Errorf("%s: one key: %v, want %v\n%s\n%s", tt.name, same, tt.same, key(tt.a), key(tt.b))
		}
	}
}
