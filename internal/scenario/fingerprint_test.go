package scenario_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"kadre/internal/scenario"
)

// TestEventFingerprints pins the simulator's event order: the first run
// of every catalogue experiment at tiny scale, as its network's rolling
// hash of every message sent (time, endpoints, lost or not), the number
// of events the kernel fired and the number of messages. A change to the
// kernel, the network or the protocol that claims to move no event must
// leave this file byte-identical. Regenerate with: go test
// ./internal/scenario -run EventFingerprints -update
func TestEventFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("sixteen simulations; the full pass and the goldens step run them")
	}
	exps, err := scenario.TinyScale.Experiments(1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, e := range exps {
		cfg := e.Configs[0]
		res, err := scenario.Run(cfg)
		if err != nil {
			t.Fatalf("%s/%s: %v", e.ID, cfg.Name, err)
		}
		fmt.Fprintf(&buf, "%s %s fingerprint=%016x events=%d messages=%d\n",
			e.ID, cfg.Name, res.Fingerprint, res.Events, res.Network.Sent)
	}
	golden := filepath.Join("testdata", "fingerprints.golden")
	if flag.Lookup("update").Value.String() == "true" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("event fingerprints drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, buf.String(), want)
	}
}
