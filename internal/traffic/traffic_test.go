package traffic

import (
	"testing"
	"time"

	"kadre/internal/eventsim"
	"kadre/internal/kademlia"
	"kadre/internal/simnet"
)

type fakePop struct {
	nodes []*kademlia.Node
}

func (f *fakePop) LiveNodes() []*kademlia.Node {
	live := make([]*kademlia.Node, 0, len(f.nodes))
	for _, n := range f.nodes {
		if n.Running() {
			live = append(live, n)
		}
	}
	return live
}

func buildPop(t *testing.T, sim *eventsim.Simulator, n int) (*fakePop, *simnet.Network) {
	t.Helper()
	net := simnet.New(sim, simnet.Config{Latency: simnet.UniformLatency{Min: 10 * time.Millisecond, Max: 10 * time.Millisecond}})
	pop := &fakePop{}
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
	return pop, net
}

func TestWorkloadDefaults(t *testing.T) {
	w := Workload{}.WithDefaults()
	if w.LookupsPerMinute != 10 || w.StoresPerMinute != 1 {
		t.Fatalf("defaults %+v do not match the paper's 10 lookups + 1 dissemination", w)
	}
	if w.KeyPoolSize != DefaultKeyPoolSize {
		t.Fatalf("key pool default = %d", w.KeyPoolSize)
	}
}

func TestGeneratorDispatchRate(t *testing.T) {
	sim := eventsim.New(1)
	pop, _ := buildPop(t, sim, 8)
	g, err := NewGenerator(sim, 64, Workload{LookupsPerMinute: 4, StoresPerMinute: 2}, pop)
	if err != nil {
		t.Fatal(err)
	}
	start := sim.Now()
	if err := g.Start(start, start+5*time.Minute); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(start + 10*time.Minute)
	// 8 nodes * 5 minutes * 4 lookups and * 2 stores.
	if g.Lookups() != 160 {
		t.Errorf("lookups = %d, want 160", g.Lookups())
	}
	if g.Stores() != 80 {
		t.Errorf("stores = %d, want 80", g.Stores())
	}
}

func TestGeneratorSkipsDeadNodes(t *testing.T) {
	sim := eventsim.New(2)
	pop, _ := buildPop(t, sim, 4)
	g, err := NewGenerator(sim, 64, Workload{LookupsPerMinute: 1, StoresPerMinute: 1}, pop)
	if err != nil {
		t.Fatal(err)
	}
	pop.nodes[0].Leave()
	pop.nodes[1].Leave()
	start := sim.Now()
	if err := g.Start(start, start+time.Minute); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(start + 2*time.Minute)
	if g.Lookups() != 2 || g.Stores() != 2 {
		t.Fatalf("ops = %d/%d, want 2/2 (only live nodes)", g.Lookups(), g.Stores())
	}
}

func TestGeneratorCausesStorage(t *testing.T) {
	sim := eventsim.New(3)
	pop, _ := buildPop(t, sim, 10)
	g, err := NewGenerator(sim, 64, Workload{LookupsPerMinute: 1, StoresPerMinute: 3, KeyPoolSize: 4}, pop)
	if err != nil {
		t.Fatal(err)
	}
	start := sim.Now()
	if err := g.Start(start, start+5*time.Minute); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(start + 10*time.Minute)
	// With 150 stores over a pool of 4 keys, some node must hold a value.
	holders := 0
	for _, n := range pop.nodes {
		for _, key := range g.Keys() {
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

// TestWorkloadDisabledRates pins the Disabled sentinel: before it, a
// zero field was indistinguishable from "unset" and WithDefaults
// silently coerced an intentional lookups-off (or stores-off) workload
// back to the paper rates.
func TestWorkloadDisabledRates(t *testing.T) {
	w := Workload{LookupsPerMinute: Disabled, StoresPerMinute: 5}.WithDefaults()
	if w.LookupsPerMinute != 0 {
		t.Fatalf("Disabled lookups coerced to %d, want 0", w.LookupsPerMinute)
	}
	if w.StoresPerMinute != 5 {
		t.Fatalf("explicit store rate rewritten to %d", w.StoresPerMinute)
	}
	w = Workload{LookupsPerMinute: 7, StoresPerMinute: Disabled}.WithDefaults()
	if w.LookupsPerMinute != 7 || w.StoresPerMinute != 0 {
		t.Fatalf("stores-off workload resolved to %+v", w)
	}
}

// TestGeneratorZeroLookupWorkload runs a stores-only workload end to
// end: the regression was that Disabled-free code could not express it
// at all (zero meant "default to 10 lookups/minute").
func TestGeneratorZeroLookupWorkload(t *testing.T) {
	sim := eventsim.New(6)
	pop, _ := buildPop(t, sim, 6)
	g, err := NewGenerator(sim, 64, Workload{LookupsPerMinute: Disabled, StoresPerMinute: 2}, pop)
	if err != nil {
		t.Fatal(err)
	}
	start := sim.Now()
	if err := g.Start(start, start+5*time.Minute); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(start + 10*time.Minute)
	if g.Lookups() != 0 {
		t.Fatalf("lookups = %d, want 0 (disabled)", g.Lookups())
	}
	// 6 nodes * 5 minutes * 2 stores.
	if g.Stores() != 60 {
		t.Fatalf("stores = %d, want 60", g.Stores())
	}
}

func TestGeneratorWindowEnd(t *testing.T) {
	sim := eventsim.New(4)
	pop, _ := buildPop(t, sim, 3)
	g, err := NewGenerator(sim, 64, Workload{LookupsPerMinute: 1, StoresPerMinute: 1}, pop)
	if err != nil {
		t.Fatal(err)
	}
	start := sim.Now()
	if err := g.Start(start, start+2*time.Minute); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(start + time.Hour)
	// The window closes after 2 minute-batches: 3 nodes * 2 minutes * 1.
	if g.Lookups() != 6 || g.Stores() != 6 {
		t.Fatalf("lookups, stores = %d, %d, want 6, 6", g.Lookups(), g.Stores())
	}
}

func TestGeneratorValidation(t *testing.T) {
	sim := eventsim.New(5)
	pop := &fakePop{}
	if _, err := NewGenerator(sim, 7, Workload{}, pop); err == nil {
		t.Error("invalid bits should fail")
	}
	if _, err := NewGenerator(sim, 64, Workload{LookupsPerMinute: -2}, pop); err == nil {
		t.Error("negative rate should fail")
	}
	if _, err := NewGenerator(sim, 64, Workload{StoresPerMinute: -2}, pop); err == nil {
		t.Error("negative store rate should fail")
	}
	if _, err := NewGenerator(sim, 64, Workload{KeyPoolSize: -1}, pop); err == nil {
		t.Error("negative key pool should fail")
	}
	g, err := NewGenerator(sim, 64, Workload{}, pop)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(time.Hour, time.Minute); err == nil {
		t.Error("inverted window should fail")
	}
}

func TestKeyPoolDeterministicPerSeed(t *testing.T) {
	mk := func(seed int64) []string {
		sim := eventsim.New(seed)
		g, err := NewGenerator(sim, 64, Workload{KeyPoolSize: 8}, &fakePop{})
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, k := range g.Keys() {
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
