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
// added to scenario.Config either changes Fingerprint — set from zero, and
// every leaf under it changed one at a time in a fully set config — or is
// named in fingerprintExempt with its reason, and setting an exempt field
// changes nothing. A field that shapes a run but escapes its key would let
// a checkpoint replay, or RunGroups share, a run that is not the same.
func TestFingerprintCoversEveryField(t *testing.T) {
	typ := reflect.TypeOf(scenario.Config{})
	for name := range fingerprintExempt {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("exempt field %s is not a scenario.Config field", name)
		}
	}
	// set returns a config with the named fields' leaves set.
	set := func(bump int, fields func(name string) bool) (scenario.Config, *leafFiller) {
		var cfg scenario.Config
		f := &leafFiller{t: t, bump: bump}
		v := reflect.ValueOf(&cfg).Elem()
		for i := 0; i < typ.NumField(); i++ {
			if name := typ.Field(i).Name; fields(name) {
				f.fill(v.Field(i), name)
			}
		}
		return cfg, f
	}
	keyed := func(name string) bool { _, ok := fingerprintExempt[name]; return !ok }

	zero := Fingerprint(scenario.Config{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		cfg, _ := set(0, func(n string) bool { return n == name })
		if changed := Fingerprint(cfg) != zero; changed != keyed(name) {
			t.Errorf("setting %s changes Fingerprint: %v; exempt: %v", name, changed, !keyed(name))
		}
	}

	full, f := set(0, keyed)
	want := Fingerprint(full)
	for bump := 1; bump <= f.n; bump++ {
		cfg, g := set(bump, keyed)
		if Fingerprint(cfg) == want {
			t.Errorf("changing %s leaves Fingerprint unchanged", g.bumped)
		}
	}
	exempt, g := full, &leafFiller{t: t}
	for name := range fingerprintExempt {
		g.fill(reflect.ValueOf(&exempt).Elem().FieldByName(name), name)
	}
	if got := Fingerprint(exempt); got != want {
		t.Errorf("setting the exempt fields changes Fingerprint:\n%s\n%s", want, got)
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
