package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"kadre/internal/eventsim"
	"kadre/internal/id"
	"kadre/internal/kademlia"
)

// Population is the engine's view of the network: the nodes that send
// traffic, fresh joins and random departures. The scenario package
// implements it over its evolving node set.
type Population interface {
	// LiveNodes returns the currently running nodes, in a slice that is
	// valid until the next call.
	LiveNodes() []*kademlia.Node
	// Join creates a fresh node and joins it through a random live
	// bootstrap node, returning a handle for ending the session later.
	Join() (Session, error)
	// RemoveRandomNode removes one uniformly chosen live node; false when
	// no node is left.
	RemoveRandomNode() bool
}

// Session is one joined node's lifetime handle. End makes the node leave
// silently (a churn-style ungraceful departure); it reports false when
// the node is already gone — removed meanwhile by churn or an adversary —
// which is not an error.
type Session interface {
	End() bool
}

// Random-stream tags: each generative generator draws from its own
// splitmix64 stream derived from (run seed, tag), so adding one generator
// to a spec never perturbs another's draws, and none of them competes
// with the kernel RNG that the setup joins, traffic and fixed-rate churn
// consume.
const (
	streamArrivals = 0xA11A1A1A00000001
	streamSessions = 0xA11A1A1A00000002
	streamFlash    = 0xA11A1A1A00000003
	streamZipf     = 0xA11A1A1A00000004
)

// DeriveStream derives an independent RNG seed for one generator stream
// from the run seed with a splitmix64 mixer; the sweep layer derives
// replication seeds with it too, the rep number as the stream. Never
// returns 0.
func DeriveStream(seed int64, stream uint64) int64 {
	x := uint64(seed) + stream*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return int64(x)
}

func streamRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewSource(DeriveStream(seed, stream)))
}

// newZipf draws key-pool ranks Zipf(s, v) over [0, poolSize) from the
// Zipf stream of seed.
func newZipf(seed int64, p *PopularitySpec, poolSize int) (*rand.Zipf, error) {
	z := rand.NewZipf(streamRand(seed, streamZipf), p.ZipfS, p.ZipfV, uint64(poolSize-1))
	if z == nil {
		return nil, fmt.Errorf("workload: invalid zipf parameters s=%g v=%g", p.ZipfS, p.ZipfV)
	}
	return z, nil
}

// Plan is everything one run does to its population.
type Plan struct {
	// Traffic, when set, runs the per-node lookup/store workload over the
	// whole run, on a key pool of Bits-bit identifiers.
	Traffic *Traffic
	Bits    int
	// Churn runs through the churn window.
	Churn ChurnRate
	// Gen is the generative bundle, already defaulted
	// (Generators.WithDefaults) and validated; its random streams derive
	// from Seed.
	Gen  Generators
	Seed int64
}

// Counts tallies what an engine did to its population.
type Counts struct {
	// Lookups and Stores count the traffic operations dispatched.
	Lookups int
	Stores  int
	// ChurnAdded and ChurnRemoved count fixed-rate churn's actions.
	ChurnAdded   int
	ChurnRemoved int
	// Joins and Leaves count the generative membership actions
	// (arrivals, flash-crowd joins, session ends, trace events).
	Joins  int
	Leaves int
}

// Engine drives everything a run does to its population inside the event
// kernel: the paper's data traffic and fixed-rate churn, which draw from
// the kernel RNG, and the generative bundle, which draws from streams of
// the run seed. All scheduling happens on the single simulator goroutine,
// so a run's byte-determinism contract holds for any sweep worker count.
type Engine struct {
	sim *eventsim.Simulator
	pop Population

	lookups int        // per live node and minute
	stores  int        // per live node and minute
	keys    []id.ID    // the traffic key pool; nil without traffic
	zipf    *rand.Zipf // popularity's key ranks; nil for uniform keys
	free    *op        // idle traffic operation records

	churn ChurnRate
	gen   Generators

	arrivals *rand.Rand
	sessions *rand.Rand
	flash    *rand.Rand

	labeled map[string]Session

	counts Counts
	err    error
}

// NewEngine builds an engine. With traffic it draws the key pool from
// the kernel RNG here, so build it where that draw belongs in the run's
// random stream. Nothing is scheduled until Start.
func NewEngine(sim *eventsim.Simulator, plan Plan, pop Population) (*Engine, error) {
	e := &Engine{sim: sim, pop: pop, churn: plan.Churn, gen: plan.Gen}
	if plan.Gen.Enabled() {
		e.arrivals = streamRand(plan.Seed, streamArrivals)
		e.sessions = streamRand(plan.Seed, streamSessions)
		e.flash = streamRand(plan.Seed, streamFlash)
		e.labeled = make(map[string]Session)
	}
	if plan.Traffic == nil {
		return e, nil
	}
	if err := id.CheckBits(plan.Bits); err != nil {
		return nil, err
	}
	if err := plan.Traffic.Validate(); err != nil {
		return nil, err
	}
	w := plan.Traffic.WithDefaults()
	e.lookups, e.stores = max(w.LookupsPerMinute, 0), max(w.StoresPerMinute, 0) // Disabled: none
	e.keys = make([]id.ID, w.KeyPoolSize)
	for i := range e.keys {
		e.keys[i] = id.Random(plan.Bits, sim.Rand())
	}
	if p := plan.Gen.Popularity; p != nil {
		z, err := newZipf(plan.Seed, p, len(e.keys))
		if err != nil {
			return nil, err
		}
		e.zipf = z
	}
	return e, nil
}

// Counts reports what the engine has done so far.
func (e *Engine) Counts() Counts { return e.counts }

// Err returns the first error from a join, or nil. A failed join never
// aborts the run.
func (e *Engine) Err() error { return e.err }

// Start schedules the run's workload, in this order: traffic every minute
// from now until `until`, then fixed-rate churn and Poisson arrivals every
// minute through the churn window [churnFrom, until), then flash crowds
// and trace events at their own absolute times. A run calls it at virtual
// time zero, before the kernel runs.
func (e *Engine) Start(churnFrom, until time.Duration) error {
	if e.keys != nil {
		if err := e.sim.Every(e.sim.Now(), until, time.Minute, e.trafficMinute); err != nil {
			return fmt.Errorf("workload: traffic: %w", err)
		}
	}
	if !e.churn.IsZero() {
		if err := e.sim.Every(churnFrom, until, time.Minute, e.churnMinute); err != nil {
			return fmt.Errorf("workload: churn: %w", err)
		}
	}
	if e.gen.Arrivals != nil {
		if err := e.sim.Every(churnFrom, until, time.Minute, e.arrivalsMinute); err != nil {
			return fmt.Errorf("workload: arrivals: %w", err)
		}
	}
	for i := range e.gen.FlashCrowds {
		e.scheduleCrowd(&e.gen.FlashCrowds[i])
	}
	if e.gen.Trace != nil {
		for _, ev := range e.gen.Trace.Events {
			ev := ev
			e.sim.MustSchedule(Minutes(ev.TMin)-e.sim.Now(), func() { e.replay(ev) })
		}
	}
	return nil
}

// dataObject is the payload of every store. Nodes keep a stored value
// and answer hits with it without copying, and none writes into one, so
// all stores of all runs share this one immutable slice.
var dataObject = []byte("data-object")

// op is one scheduled lookup or store. It arms its own timer with itself
// as the event and is recycled through the engine's free list, so a
// steady-state operation allocates neither a closure nor a timer.
type op struct {
	timer eventsim.Timer
	e     *Engine
	node  *kademlia.Node
	key   id.ID
	store bool
	next  *op // free-list link
}

// Run implements eventsim.Runner: the operation's instant has come. The
// record goes back on the free list before the operation starts.
func (o *op) Run() {
	e, node, key, store := o.e, o.node, o.key, o.store
	o.node, o.next, e.free = nil, e.free, o
	if !node.Running() {
		return
	}
	if store {
		e.counts.Stores++
		node.Store(key, dataObject, nil)
	} else {
		e.counts.Lookups++
		node.Get(key, nil)
	}
}

// post schedules one operation of node on key after offset.
func (e *Engine) post(offset time.Duration, node *kademlia.Node, key id.ID, store bool) {
	o := e.free
	if o != nil {
		e.free = o.next
	} else {
		o = &op{e: e}
	}
	o.node, o.key, o.store, o.next = node, key, store, nil
	e.sim.Arm(&o.timer, offset, o)
}

// key draws one key from the pool: by Zipf rank under a popularity
// generator, else uniformly from the kernel RNG.
func (e *Engine) key(r *rand.Rand) id.ID {
	if e.zipf != nil {
		return e.keys[e.zipf.Uint64()]
	}
	return e.keys[r.Intn(len(e.keys))]
}

// trafficMinute posts one minute of every live node's operations.
func (e *Engine) trafficMinute() bool {
	r := e.sim.Rand()
	for _, node := range e.pop.LiveNodes() {
		for i := 0; i < e.lookups; i++ {
			key := e.key(r)
			e.post(time.Duration(r.Int63n(int64(time.Minute))), node, key, false)
		}
		for i := 0; i < e.stores; i++ {
			key := e.key(r)
			e.post(time.Duration(r.Int63n(int64(time.Minute))), node, key, true)
		}
	}
	return true
}

// churnMinute schedules one minute of fixed-rate churn: the removals,
// then the additions, each at a uniformly random offset within the
// minute.
func (e *Engine) churnMinute() bool {
	r := e.sim.Rand()
	for i := 0; i < e.churn.Remove; i++ {
		offset := time.Duration(r.Int63n(int64(time.Minute)))
		e.sim.MustSchedule(offset, func() {
			if e.pop.RemoveRandomNode() {
				e.counts.ChurnRemoved++
			}
		})
	}
	for i := 0; i < e.churn.Add; i++ {
		offset := time.Duration(r.Int63n(int64(time.Minute)))
		e.sim.MustSchedule(offset, func() {
			if e.join() != nil {
				e.counts.ChurnAdded++
			}
		})
	}
	return true
}

// arrivalsMinute draws this minute's Poisson arrival count.
func (e *Engine) arrivalsMinute() bool {
	rate := e.gen.Arrivals.rateAt(e.sim.Now())
	for i := poisson(e.arrivals, rate); i > 0; i-- {
		offset := time.Duration(e.arrivals.Int63n(int64(time.Minute)))
		e.sim.MustSchedule(offset, func() { e.arrive(e.gen.Sessions) })
	}
	return true
}

// scheduleCrowd spreads one flash crowd's joins uniformly over its
// window. The crowd's own session distribution, when set, overrides the
// run's.
func (e *Engine) scheduleCrowd(fc *FlashCrowdSpec) {
	sessions := fc.Sessions
	if sessions == nil {
		sessions = e.gen.Sessions
	}
	for i := 0; i < fc.Joins; i++ {
		at := Minutes(fc.AtMinutes + e.flash.Float64()*fc.WindowMinutes)
		e.sim.MustSchedule(at-e.sim.Now(), func() { e.arrive(sessions) })
	}
}

// join joins one fresh node and returns its session, or nil after
// recording the first failure.
func (e *Engine) join() Session {
	sess, err := e.pop.Join()
	if err != nil {
		if e.err == nil {
			e.err = err
		}
		return nil
	}
	return sess
}

// arrive performs one generative join, scheduling the session's
// departure when a lifetime distribution applies.
func (e *Engine) arrive(sessions *SessionsSpec) {
	sess := e.join()
	if sess == nil {
		return
	}
	e.counts.Joins++
	if sessions != nil {
		life := Minutes(sessions.sample(e.sessions))
		e.sim.MustSchedule(life, func() {
			if sess.End() {
				e.counts.Leaves++
			}
		})
	}
}

// replay executes one trace event. Trace-joined nodes live exactly as
// long as the trace says — the run's session distribution never applies
// to them. A labeled leave ends that node if it is still around (churn
// or an adversary may have removed it first); an unlabeled leave removes
// a uniformly random live node.
func (e *Engine) replay(ev TraceEvent) {
	switch ev.Op {
	case "join":
		sess := e.join()
		if sess == nil {
			return
		}
		e.counts.Joins++
		if ev.Node != "" {
			e.labeled[ev.Node] = sess
		}
	case "leave":
		if ev.Node != "" {
			sess := e.labeled[ev.Node]
			delete(e.labeled, ev.Node)
			if sess != nil && sess.End() {
				e.counts.Leaves++
			}
			return
		}
		if e.pop.RemoveRandomNode() {
			e.counts.Leaves++
		}
	}
}

// rateAt evaluates the (possibly diurnal) arrival rate at virtual time
// t, in joins per minute, clamped at zero.
func (a *ArrivalsSpec) rateAt(t time.Duration) float64 {
	rate := a.RatePerMinute
	if d := a.Diurnal; d != nil {
		phase := 2 * math.Pi * (t.Minutes() - d.PhaseMinutes) / d.PeriodMinutes
		rate *= 1 + d.Amplitude*math.Sin(phase)
	}
	return math.Max(0, rate)
}

// sample draws one session length in minutes from a validated spec.
func (s *SessionsSpec) sample(r *rand.Rand) float64 {
	switch s.Dist {
	case "lognormal":
		// Parameterized by the distribution mean: E[X] = exp(mu+sigma^2/2),
		// so mu = ln(mean) - sigma^2/2 makes MeanMinutes the true mean.
		mu := math.Log(s.MeanMinutes) - s.Sigma*s.Sigma/2
		return math.Exp(mu + s.Sigma*r.NormFloat64())
	case "pareto":
		// Inverse-CDF: x_m * (1-U)^(-1/alpha).
		return s.MinMinutes * math.Pow(1-r.Float64(), -1/s.Alpha)
	}
	panic(fmt.Sprintf("workload: unvalidated session dist %q", s.Dist))
}

// poisson draws Poisson(lambda) by Knuth's product method. Large rates
// are split into <=30 chunks first (Poisson is additive), keeping
// exp(-lambda) well away from underflow.
func poisson(r *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	n := 0
	for lambda > 30 {
		n += poissonKnuth(r, 30)
		lambda -= 30
	}
	return n + poissonKnuth(r, lambda)
}

func poissonKnuth(r *rand.Rand, lambda float64) int {
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Minutes converts fractional simulated minutes to kernel time.
func Minutes(m float64) time.Duration {
	return time.Duration(m * float64(time.Minute))
}
