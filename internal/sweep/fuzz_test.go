package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"kadre/internal/scenario"
)

// FuzzCheckpointLoad holds the checkpoint decoder to reject-or-roundtrip:
// whatever bytes lie in a run's checkpoint file, Load either refuses them
// — no usable checkpoint, or an error for a changed definition — or
// replays a result that Store writes back and Load reads again unchanged,
// the rewritten file stable on a second write. It never panics. CI runs a
// short -fuzztime smoke.
func FuzzCheckpointLoad(f *testing.F) {
	const exp = "fuzz"
	cfg := ckptConfigs()[1] // the attacked run: points, victims, counters
	res, err := scenario.Run(cfg)
	if err != nil {
		f.Fatal(err)
	}
	seedCkpt, err := NewCheckpointer(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := seedCkpt.Store(exp, cfg, 0, res); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seedCkpt.path(exp, cfg, 0))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // a torn write
	f.Add(bytes.Replace(valid, []byte(`"rep":0`), []byte(`"rep":1`), 1))
	f.Add(bytes.Replace(valid, []byte(`k=8`), []byte(`k=9`), 1)) // another definition
	f.Add(bytes.Replace(valid, []byte(`"result":{`), []byte(`"result":null,"x":{`), 1))
	f.Add([]byte(`{"name":"ckpt/attacked","rep":0,"seed":3,"result":{"Points":[{"Time":-1,"Avg":1e308}],"Victims":[{"ID":""}]}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte{})
	// One directory serves every input of a fuzzing process, which runs
	// them one at a time: each input overwrites the same file.
	ckpt, err := NewCheckpointer(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	path := ckpt.path(exp, cfg, 0)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok, err := ckpt.Load(exp, cfg, 0)
		if !ok {
			if got != nil {
				t.Fatalf("refused checkpoint returned a result (err %v)", err)
			}
			return
		}
		if err != nil || got == nil {
			t.Fatalf("replayed checkpoint: result %v, err %v", got, err)
		}
		if err := ckpt.Store(exp, cfg, 0, got); err != nil {
			t.Fatalf("replayed result does not store: %v", err)
		}
		first, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		back, ok, err := ckpt.Load(exp, cfg, 0)
		if !ok || err != nil {
			t.Fatalf("stored result does not load back: ok %v, err %v\n%s", ok, err, first)
		}
		if !reflect.DeepEqual(back, got) {
			t.Fatalf("round trip changed the result:\n%+v\n%+v", got, back)
		}
		if err := ckpt.Store(exp, cfg, 0, back); err != nil {
			t.Fatal(err)
		}
		if second, err := os.ReadFile(path); err != nil || !bytes.Equal(first, second) {
			t.Fatalf("second write differs (err %v):\n%s\nvs\n%s", err, first, second)
		}
	})
}
