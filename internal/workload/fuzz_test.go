package workload

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzDecode holds the single door every -scenario file and embedded
// kadserve spec passes to reject-or-roundtrip: Decode never panics, and a
// document it accepts re-marshals into one it accepts again with the
// same Digest — so the digest stamped on checkpoints is a function of
// the spec's meaning, not of its spelling. Seeded from the committed
// specs and examples, symbolic sizes among them, and from
// TestDecodeRejections' table.
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
	f.Add([]byte(validSpecJSON))
	// Symbolic sizes, in a run and inherited from the defaults block.
	f.Add([]byte(`{"version":1,"id":"t","runs":[{"name":"a","size":"large"},{"name":"b","size":"small"},{"name":"c","size":40}]}`))
	f.Add([]byte(`{"version":1,"id":"t","defaults":{"size":"large","churn":"0/0"},"runs":[{"name":"a"},{"name":"b","size":12}]}`))
	for _, tt := range decodeRejections {
		f.Add([]byte(tt.in))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Decode(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		again, err := Decode(out)
		if err != nil {
			t.Fatalf("accepted spec does not re-decode: %v\n%s", err, out)
		}
		if got, want := again.Digest(), sp.Digest(); got != want {
			t.Fatalf("digest changed across a round trip: %s -> %s\n%s", want, got, out)
		}
	})
}

// FuzzLoadTrace holds the last outside-input decoder to the same
// reject-or-roundtrip bar: ReadTrace never panics, and the events it
// accepts re-encode as JSONL that reads back to the same events — so a
// replayed trace means what its file says, whatever the spelling. Seeded
// from the committed trace and from TestLoadTraceErrors' table.
func FuzzLoadTrace(f *testing.F) {
	data, err := os.ReadFile(filepath.Join("..", "scenario", "testdata", "trace_tiny.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	for _, tt := range traceRejections {
		f.Add([]byte(tt.content))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		enc := json.NewEncoder(&out) // one event per line: JSONL
		for _, ev := range events {
			if err := enc.Encode(ev); err != nil {
				t.Fatalf("accepted event does not marshal: %v", err)
			}
		}
		again, err := ReadTrace(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("accepted trace does not re-read: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(again, events) {
			t.Fatalf("events changed across a round trip:\n%v\n%v", events, again)
		}
	})
}
