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
// sent. Lookup records, request records, envelopes and response buffers
// come from one pool per network, traffic operations run on recycled
// records, and stored values are shared, so what is left is mostly a
// Store's closure and result slice, the pool's records as it first grows,
// routing-table buckets and the captured snapshot graphs. The run read
// 0.845 mallocs per message when every response allocated its contact list
// and every lookup its candidates, 0.354 with those pooled but a closure
// and timer per traffic operation, a copy per stored value and hit and a
// new buffer after every drop, 0.032 while every node kept free lists of
// its own request records and envelopes, and reads 0.023 now; the bound
// leaves 15 % headroom over that.
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
	if perMsg > 0.026 {
		t.Fatalf("%.3f mallocs per message, bound 0.026", perMsg)
	}
}
