package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"kadre/internal/scenario"
)

// FuzzCheckpointLoad holds the checkpoint decoder to reject-or-roundtrip:
// whatever bytes lie at a run's checkpoint address, Load either finds no
// checkpoint or replays a file holding this run's key, whose result Store
// writes back and Load reads again unchanged, the rewritten file stable on
// a second write. It never panics. CI runs a short -fuzztime smoke.
func FuzzCheckpointLoad(f *testing.F) {
	cfg := ckptConfigs()[1] // the attacked run: points, victims, counters
	res, err := scenario.Run(cfg)
	if err != nil {
		f.Fatal(err)
	}
	seedCkpt, err := NewCheckpointer(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := seedCkpt.Store(cfg, res); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seedCkpt.path(Key(cfg)))
	if err != nil {
		f.Fatal(err)
	}
	key, err := json.Marshal(Key(cfg))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])                                            // a torn write
	f.Add(bytes.Replace(valid, []byte(`|seed=3"`), []byte(`|seed=4"`), 1)) // another replication's key
	f.Add(bytes.Replace(valid, []byte(`k=8`), []byte(`k=9`), 1))           // another definition's key
	f.Add(bytes.Replace(valid, []byte(`"result":{`), []byte(`"result":null,"x":{`), 1))
	f.Add([]byte(`{"key":` + string(key) + `,"result":{"Points":[{"Time":-1,"Avg":1e308}],"Victims":[{"ID":""}]}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte{})
	// One directory serves every input of a fuzzing process, which runs
	// them one at a time: each input overwrites the same file.
	ckpt, err := NewCheckpointer(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	path := ckpt.path(Key(cfg))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := ckpt.Load(cfg)
		if !ok {
			if got != nil {
				t.Fatal("Load found no checkpoint but returned a result")
			}
			return
		}
		var in ckptFile
		if json.Unmarshal(data, &in) != nil || in.Key != Key(cfg) {
			t.Fatalf("replayed a file that does not hold this run's key:\n%s", data)
		}
		if err := ckpt.Store(cfg, got); err != nil {
			t.Fatalf("replayed result does not store: %v", err)
		}
		first, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		back, ok := ckpt.Load(cfg)
		if !ok {
			t.Fatalf("stored result does not load back:\n%s", first)
		}
		if !reflect.DeepEqual(back, got) {
			t.Fatalf("round trip changed the result:\n%+v\n%+v", got, back)
		}
		if err := ckpt.Store(cfg, back); err != nil {
			t.Fatal(err)
		}
		if second, err := os.ReadFile(path); err != nil || !bytes.Equal(first, second) {
			t.Fatalf("second write differs (err %v):\n%s\nvs\n%s", err, first, second)
		}
	})
}
