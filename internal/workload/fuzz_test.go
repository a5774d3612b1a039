package workload

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecode holds the single door every -scenario file and embedded
// kadserve spec passes to reject-or-roundtrip: Decode never panics, and a
// document it accepts re-marshals into one it accepts again with the
// same Digest — so the digest stamped on checkpoints is a function of
// the spec's meaning, not of its spelling. Seeded from the committed
// specs and examples and from TestDecodeRejections' table.
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
