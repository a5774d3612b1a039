// Package traffic generates the paper's data-traffic workload: in the
// with-traffic scenarios every node performs 10 lookup procedures and 1
// dissemination procedure per minute, each at a uniformly random instant
// within the minute (§5.3). Lookups target data-object keys drawn from a
// shared key pool; disseminations store small payloads under such keys.
package traffic

import (
	"fmt"
	"math/rand"
	"time"

	"kadre/internal/eventsim"
	"kadre/internal/id"
	"kadre/internal/kademlia"
)

// Default per-node per-minute operation rates from §5.3.
const (
	DefaultLookupsPerMinute = 10
	DefaultStoresPerMinute  = 1
	// DefaultKeyPoolSize bounds the shared universe of data-object keys.
	DefaultKeyPoolSize = 256
)

// Disabled turns one workload rate off explicitly. A zero field means
// "unset — take the paper default", so 0 alone cannot express a
// lookups-off or stores-off workload; set the field to Disabled instead.
const Disabled = -1

// Workload parameterizes the generator. Zero fields take the defaults
// above; Disabled turns a rate off.
type Workload struct {
	LookupsPerMinute int
	StoresPerMinute  int
	KeyPoolSize      int
}

// WithDefaults resolves the workload to the effective rates a generator
// runs: zero fields become the paper defaults, Disabled becomes 0.
func (w Workload) WithDefaults() Workload {
	switch w.LookupsPerMinute {
	case 0:
		w.LookupsPerMinute = DefaultLookupsPerMinute
	case Disabled:
		w.LookupsPerMinute = 0
	}
	switch w.StoresPerMinute {
	case 0:
		w.StoresPerMinute = DefaultStoresPerMinute
	case Disabled:
		w.StoresPerMinute = 0
	}
	if w.KeyPoolSize == 0 {
		w.KeyPoolSize = DefaultKeyPoolSize
	}
	return w
}

// Validate rejects rates that are neither a count, zero-meaning-default,
// nor the Disabled sentinel. The key pool cannot be disabled — a traffic
// generator without keys is meaningless (turn both rates off instead).
func (w Workload) Validate() error {
	if w.LookupsPerMinute < Disabled {
		return fmt.Errorf("traffic: lookups/minute %d is negative (use Disabled to turn lookups off)", w.LookupsPerMinute)
	}
	if w.StoresPerMinute < Disabled {
		return fmt.Errorf("traffic: stores/minute %d is negative (use Disabled to turn stores off)", w.StoresPerMinute)
	}
	if w.KeyPoolSize < 0 {
		return fmt.Errorf("traffic: key pool size %d is negative", w.KeyPoolSize)
	}
	return nil
}

// Population yields the nodes that should generate traffic.
type Population interface {
	// LiveNodes returns the currently running nodes, in a slice that is
	// valid until the next call.
	LiveNodes() []*kademlia.Node
}

// dataObject is the payload of every store. Nodes keep a stored value
// and answer hits with it without copying, and none writes into one, so
// all stores of all runs share this one immutable slice.
var dataObject = []byte("data-object")

// Generator drives the workload.
type Generator struct {
	sim      *eventsim.Simulator
	workload Workload
	pop      Population
	keys     []id.ID
	pickKey  func() int
	free     *op // idle operation records

	lookups int
	stores  int
}

// op is one scheduled lookup or store. It arms its own timer with itself
// as the event and is recycled through the generator's free list, so a
// steady-state operation allocates neither a closure nor a timer.
type op struct {
	timer eventsim.Timer
	g     *Generator
	node  *kademlia.Node
	key   id.ID
	store bool
	next  *op // free-list link
}

// Run implements eventsim.Runner: the operation's instant has come. The
// record goes back on the free list before the operation starts.
func (o *op) Run() {
	g, node, key, store := o.g, o.node, o.key, o.store
	o.node, o.next, g.free = nil, g.free, o
	if !node.Running() {
		return
	}
	if store {
		g.stores++
		node.Store(key, dataObject, nil)
	} else {
		g.lookups++
		node.Get(key, nil)
	}
}

// post schedules one operation of node on key after offset.
func (g *Generator) post(offset time.Duration, node *kademlia.Node, key id.ID, store bool) {
	o := g.free
	if o != nil {
		g.free = o.next
	} else {
		o = &op{g: g}
	}
	o.node, o.key, o.store, o.next = node, key, store, nil
	g.sim.Arm(&o.timer, offset, o)
}

// NewGenerator builds a traffic generator whose key pool is drawn with the
// simulator's RNG in the given identifier space.
func NewGenerator(sim *eventsim.Simulator, bits int, w Workload, pop Population) (*Generator, error) {
	if err := id.CheckBits(bits); err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	w = w.WithDefaults()
	g := &Generator{sim: sim, workload: w, pop: pop}
	g.keys = make([]id.ID, w.KeyPoolSize)
	for i := range g.keys {
		g.keys[i] = id.Random(bits, sim.Rand())
	}
	return g, nil
}

// Lookups reports how many lookup procedures have been dispatched.
func (g *Generator) Lookups() int { return g.lookups }

// Stores reports how many dissemination procedures have been dispatched.
func (g *Generator) Stores() int { return g.stores }

// Keys exposes the key pool (for examples that want to read data back).
func (g *Generator) Keys() []id.ID {
	return append([]id.ID(nil), g.keys...)
}

// PoolSize reports the effective key-pool size.
func (g *Generator) PoolSize() int { return len(g.keys) }

// SetKeyPicker replaces uniform key selection: pick returns the pool
// index for each lookup/store. The generative workload layer plugs a
// Zipf-popularity picker in here. Pick must be deterministic given its
// own seeding and is invoked only on the simulator goroutine. Call
// before the kernel runs.
func (g *Generator) SetKeyPicker(pick func() int) { g.pickKey = pick }

// key draws one key from the pool, through the picker when set.
func (g *Generator) key(r *rand.Rand) id.ID {
	if g.pickKey != nil {
		return g.keys[g.pickKey()%len(g.keys)]
	}
	return g.keys[r.Intn(len(g.keys))]
}

// Start schedules traffic from `from` until `until`.
func (g *Generator) Start(from, until time.Duration) error {
	if err := g.sim.Every(from, until, time.Minute, g.minute); err != nil {
		return fmt.Errorf("traffic: %w", err)
	}
	return nil
}

// minute posts one minute of every live node's operations.
func (g *Generator) minute() bool {
	r := g.sim.Rand()
	for _, node := range g.pop.LiveNodes() {
		for i := 0; i < g.workload.LookupsPerMinute; i++ {
			key := g.key(r)
			g.post(time.Duration(r.Int63n(int64(time.Minute))), node, key, false)
		}
		for i := 0; i < g.workload.StoresPerMinute; i++ {
			key := g.key(r)
			g.post(time.Duration(r.Int63n(int64(time.Minute))), node, key, true)
		}
	}
	return true
}
