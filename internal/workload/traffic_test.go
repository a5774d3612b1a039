package workload

import (
	"testing"
	"time"

	"kadre/internal/eventsim"
	"kadre/internal/kademlia"
	"kadre/internal/simnet"
)

// trafficPop returns a population of n joined nodes, one simulated minute
// after they started.
func trafficPop(t *testing.T, sim *eventsim.Simulator, n int) *fakePop {
	t.Helper()
	net := simnet.New(sim, simnet.Config{Latency: simnet.UniformLatency{Min: 10 * time.Millisecond, Max: 10 * time.Millisecond}})
	pop := newFakePop(sim, 0)
	cfg := kademlia.Config{Bits: 64, K: 5, Alpha: 3, StalenessLimit: 1}
	for i := 0; i < n; i++ {
		node, err := kademlia.NewNode(cfg, simnet.Addr(i+1), net)
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Start(); err != nil {
			t.Fatal(err)
		}
		pop.nodes = append(pop.nodes, node)
	}
	for i := 1; i < n; i++ {
		if err := pop.nodes[i].Join(pop.nodes[0].Contact(), nil); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunUntil(time.Minute)
	return pop
}

// trafficEngine starts an engine that runs w alone for the given minutes
// from now.
func trafficEngine(t *testing.T, sim *eventsim.Simulator, w Traffic, pop *fakePop, minutes time.Duration) *Engine {
	t.Helper()
	e := mustEngine(t, sim, Plan{Traffic: &w, Bits: 64}, pop)
	if err := e.Start(sim.Now(), sim.Now()+minutes*time.Minute); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestTrafficDefaults(t *testing.T) {
	w := Traffic{}.WithDefaults()
	if w.LookupsPerMinute != 10 || w.StoresPerMinute != 1 {
		t.Fatalf("defaults %+v do not match the paper's 10 lookups + 1 dissemination", w)
	}
	if w.KeyPoolSize != DefaultKeyPoolSize {
		t.Fatalf("key pool default = %d", w.KeyPoolSize)
	}
}

func TestTrafficDispatchRate(t *testing.T) {
	sim := eventsim.New(1)
	e := trafficEngine(t, sim, Traffic{LookupsPerMinute: 4, StoresPerMinute: 2}, trafficPop(t, sim, 8), 5)
	sim.RunUntil(sim.Now() + 10*time.Minute)
	// 8 nodes * 5 minutes * 4 lookups and * 2 stores.
	if c := e.Counts(); c.Lookups != 160 || c.Stores != 80 {
		t.Errorf("lookups, stores = %d, %d, want 160, 80", c.Lookups, c.Stores)
	}
}

func TestTrafficSkipsDeadNodes(t *testing.T) {
	sim := eventsim.New(2)
	pop := trafficPop(t, sim, 4)
	pop.nodes[0].Leave()
	pop.nodes[1].Leave()
	e := trafficEngine(t, sim, Traffic{LookupsPerMinute: 1, StoresPerMinute: 1}, pop, 1)
	sim.RunUntil(sim.Now() + 2*time.Minute)
	if c := e.Counts(); c.Lookups != 2 || c.Stores != 2 {
		t.Fatalf("ops = %d/%d, want 2/2 (only live nodes)", c.Lookups, c.Stores)
	}
}

func TestTrafficCausesStorage(t *testing.T) {
	sim := eventsim.New(3)
	pop := trafficPop(t, sim, 10)
	e := trafficEngine(t, sim, Traffic{LookupsPerMinute: 1, StoresPerMinute: 3, KeyPoolSize: 4}, pop, 5)
	sim.RunUntil(sim.Now() + 10*time.Minute)
	// With 150 stores over a pool of 4 keys, some node must hold a value.
	holders := 0
	for _, n := range pop.nodes {
		for _, key := range e.keys {
			if n.HasValue(key) {
				holders++
				break
			}
		}
	}
	if holders == 0 {
		t.Fatal("dissemination stored nothing")
	}
}

// TestTrafficDisabledRates pins the Disabled sentinel: before it, a zero
// field was indistinguishable from "unset" and WithDefaults silently
// coerced an intentional lookups-off (or stores-off) workload back to
// the paper rates. WithDefaults keeps Disabled, so it is a fixed point.
func TestTrafficDisabledRates(t *testing.T) {
	for _, w := range []Traffic{
		{LookupsPerMinute: Disabled, StoresPerMinute: 5},
		{LookupsPerMinute: 7, StoresPerMinute: Disabled},
	} {
		got := w.WithDefaults()
		want := w
		want.KeyPoolSize = DefaultKeyPoolSize
		if got != want {
			t.Errorf("%+v resolved to %+v, want %+v", w, got, want)
		}
		if got.WithDefaults() != got {
			t.Errorf("WithDefaults is not a fixed point on %+v", got)
		}
	}
}

// TestTrafficZeroLookupWorkload runs a stores-only workload end to end:
// the regression was that Disabled-free code could not express it at all
// (zero meant "default to 10 lookups/minute").
func TestTrafficZeroLookupWorkload(t *testing.T) {
	sim := eventsim.New(6)
	e := trafficEngine(t, sim, Traffic{LookupsPerMinute: Disabled, StoresPerMinute: 2}, trafficPop(t, sim, 6), 5)
	sim.RunUntil(sim.Now() + 10*time.Minute)
	// 6 nodes * 5 minutes * 2 stores.
	if c := e.Counts(); c.Lookups != 0 || c.Stores != 60 {
		t.Fatalf("lookups, stores = %d, %d, want 0 (disabled), 60", c.Lookups, c.Stores)
	}
}

func TestTrafficWindowEnd(t *testing.T) {
	sim := eventsim.New(4)
	e := trafficEngine(t, sim, Traffic{LookupsPerMinute: 1, StoresPerMinute: 1}, trafficPop(t, sim, 3), 2)
	sim.RunUntil(sim.Now() + time.Hour)
	// The window closes after 2 minute-batches: 3 nodes * 2 minutes * 1.
	if c := e.Counts(); c.Lookups != 6 || c.Stores != 6 {
		t.Fatalf("lookups, stores = %d, %d, want 6, 6", c.Lookups, c.Stores)
	}
}

func TestTrafficValidation(t *testing.T) {
	sim := eventsim.New(5)
	pop := newFakePop(sim, 0)
	for _, tt := range []struct {
		name string
		bits int
		w    Traffic
	}{
		{"invalid bits", 7, Traffic{}},
		{"negative lookup rate", 64, Traffic{LookupsPerMinute: -2}},
		{"negative store rate", 64, Traffic{StoresPerMinute: -2}},
		{"negative key pool", 64, Traffic{KeyPoolSize: -1}},
	} {
		if _, err := NewEngine(sim, Plan{Traffic: &tt.w, Bits: tt.bits}, pop); err == nil {
			t.Errorf("%s: accepted", tt.name)
		}
	}
	e := mustEngine(t, sim, Plan{Traffic: &Traffic{}, Bits: 64}, pop)
	if err := e.Start(0, -time.Minute); err == nil {
		t.Error("inverted window should fail")
	}
}

func TestKeyPoolDeterministicPerSeed(t *testing.T) {
	mk := func(seed int64) []string {
		sim := eventsim.New(seed)
		e := mustEngine(t, sim, Plan{Traffic: &Traffic{KeyPoolSize: 8}, Bits: 64}, newFakePop(sim, 0))
		var out []string
		for _, k := range e.keys {
			out = append(out, k.String())
		}
		return out
	}
	a, b, c := mk(1), mk(1), mk(2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different key pools")
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical key pools")
	}
}
