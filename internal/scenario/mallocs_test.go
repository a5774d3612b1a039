package scenario

import (
	"runtime"
	"testing"
	"time"

	"kadre/internal/churn"
)

// TestSimulatorMallocsPerMessage is a gate a shared runner can hold where a
// wall-clock bound cannot: a small Sim E-shaped run (churn 1/1, data
// traffic) must stay under a stated number of heap allocations per message
// sent. Lookups run on recycled records with their own candidate arrays and
// response buffers, so what is left per message is the traffic generator's
// closure and timer per operation, the value copies of STORE and FIND_VALUE
// hits, and a buffer for every request that times out. The run read 0.845
// mallocs per message when every response allocated its contact list and
// every lookup its candidates, and reads 0.354 now.
func TestSimulatorMallocsPerMessage(t *testing.T) {
	cfg := tinyConfig("mallocs", 5)
	cfg.K = 20
	cfg.Traffic = true
	cfg.Churn = churn.Rate1_1
	cfg.ChurnPhase = 10 * time.Minute
	cfg.Workers = 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Network.Sent < 100000 {
		t.Fatalf("only %d messages sent: not the run this bound was stated for", res.Network.Sent)
	}
	perMsg := float64(after.Mallocs-before.Mallocs) / float64(res.Network.Sent)
	t.Logf("%d mallocs over %d messages: %.3f per message", after.Mallocs-before.Mallocs, res.Network.Sent, perMsg)
	if perMsg > 0.45 {
		t.Fatalf("%.3f mallocs per message, bound 0.45", perMsg)
	}
}
