package workload

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

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
