package workload_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"kadre/internal/scenario"
	"kadre/internal/sweep"
	"kadre/internal/workload"
)

// FuzzDecode holds the single door every -scenario file and embedded
// kadserve spec passes to reject-or-roundtrip: Decode never panics, and a
// document it accepts re-marshals into one it accepts again that resolves
// to the same runs under the same keys (sweep.Key) — so what a checkpoint
// or the kadserve arena files a run under is a function of the spec's
// meaning, not of its spelling. Seeded from the committed specs and
// examples, symbolic sizes and a labeled inline trace among them, and
// from TestDecodeRejections' table.
func FuzzDecode(f *testing.F) {
	for _, glob := range []string{"specs", "examples"} {
		files, err := filepath.Glob(filepath.Join("..", "..", glob, "*.json"))
		if err != nil || len(files) == 0 {
			f.Fatalf("no seed specs under %s (err %v)", glob, err)
		}
		for _, file := range files {
			data, err := os.ReadFile(file)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Add([]byte(workload.ValidSpecJSON))
	// Symbolic sizes, in a run and inherited from the defaults block.
	f.Add([]byte(`{"version":1,"id":"t","runs":[{"name":"a","size":"large"},{"name":"b","size":"small"},{"name":"c","size":40}]}`))
	f.Add([]byte(`{"version":1,"id":"t","defaults":{"size":"large","churn":"0/0"},"runs":[{"name":"a"},{"name":"b","size":12}]}`))
	// A labeled inline trace, which meets a trace file's label rules.
	f.Add([]byte(`{"version":1,"id":"t","runs":[{"name":"r","churn_minutes":5,"trace":{"events":[{"t_min":1,"op":"join","node":"a"},{"t_min":2,"op":"leave","node":"a"},{"t_min":3,"op":"leave"}]}}]}`))
	for _, in := range workload.DecodeRejectionInputs() {
		f.Add([]byte(in))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := workload.Decode(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		again, err := workload.Decode(out)
		if err != nil {
			t.Fatalf("accepted spec does not re-decode: %v\n%s", err, out)
		}
		if got, want := runKeys(again), runKeys(sp); !reflect.DeepEqual(got, want) {
			t.Fatalf("run keys changed across a round trip:\n%q\n%q\n%s", want, got, out)
		}
	})
}

// runKeys resolves sp at the tiny scale and returns its runs' names and
// keys, or the resolution error.
func runKeys(sp *workload.Spec) []string {
	exp, err := scenario.FromSpec(sp, scenario.TinyScale, 1)
	if err != nil {
		return []string{err.Error()}
	}
	var out []string
	for _, cfg := range exp.Configs {
		out = append(out, cfg.Name, sweep.Key(cfg))
	}
	return out
}
