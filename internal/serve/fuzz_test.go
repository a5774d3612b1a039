package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"kadre/internal/sweep"
)

// FuzzQueryResolve holds the door every POST /v1/query body passes:
// strict decode plus Resolve never panics, and whatever resolves is
// runnable — its defaulted config validates and snapshots at least once
// within the run — and keeps its arena key across a marshal/decode round
// trip, so a query's identity is a function of its meaning, not of its
// spelling. Seeded from the committed kadserve queries, the flat/embedded
// equivalence table and TestQueryValidation's rejections.
func FuzzQueryResolve(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "cmd", "kadserve", "testdata", "*.json"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no seed queries (err %v)", err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, tt := range equivalentSpellings {
		f.Add([]byte(tt.flat))
		f.Add([]byte(tt.embedded))
	}
	for _, body := range badQueries {
		f.Add([]byte(body))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		qs, err := decodeQuery(bytes.NewReader(data))
		if err != nil {
			return
		}
		q, err := qs.Resolve()
		if err != nil {
			return
		}
		eff := q.Config.WithDefaults()
		if err := eff.Validate(); err != nil {
			t.Fatalf("resolved config does not validate: %v", err)
		}
		if eff.SnapshotInterval > eff.Total() {
			t.Fatalf("snapshot interval %v past the run's end %v", eff.SnapshotInterval, eff.Total())
		}
		out, err := json.Marshal(qs)
		if err != nil {
			t.Fatalf("accepted query does not marshal: %v", err)
		}
		again, err := resolveBody(out)
		if err != nil {
			t.Fatalf("accepted query does not re-resolve: %v\n%s", err, out)
		}
		if got, want := sweep.Key(again.Config), sweep.Key(q.Config); got != want {
			t.Fatalf("arena key changed across a round trip:\n %s\n %s\n%s", want, got, out)
		}
	})
}
