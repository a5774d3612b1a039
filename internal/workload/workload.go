package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"kadre/internal/eventsim"
)

// Population is the engine's view of the network: generative joins and
// trace-driven departures. The scenario package implements it over its
// evolving node set.
type Population interface {
	// Join creates a fresh node and joins it through a random live
	// bootstrap node, returning a handle for ending the session later.
	Join() (Session, error)
	// RemoveRandomNode removes one uniformly chosen live node; false when
	// no node is left.
	RemoveRandomNode() bool
}

// Session is one generatively joined node's lifetime handle. End makes
// the node leave silently (a churn-style ungraceful departure); it
// reports false when the node is already gone — removed meanwhile by
// churn or an adversary — which is not an error.
type Session interface {
	End() bool
}

// Random-stream tags: each generator draws from its own splitmix64
// stream derived from (run seed, tag), so adding one generator to a spec
// never perturbs another's draws, and nothing here competes with the
// kernel RNG that churn/traffic/setup consume.
const (
	streamArrivals = 0xA11A1A1A00000001
	streamSessions = 0xA11A1A1A00000002
	streamFlash    = 0xA11A1A1A00000003
	streamZipf     = 0xA11A1A1A00000004
)

// DeriveStream derives an independent RNG seed for one generator stream
// from the run seed, using the same splitmix64 mixer the sweep layer
// uses for replication seeds. Never returns 0.
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

// NewZipfPicker returns a key-pool index picker drawing ranks
// Zipf(s, v) over [0, poolSize), for plugging into the traffic
// generator's key selection. Deterministic in (seed, spec, poolSize).
func NewZipfPicker(seed int64, p *PopularitySpec, poolSize int) (func() int, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if poolSize < 1 {
		return nil, fmt.Errorf("workload: zipf over empty key pool")
	}
	v := p.ZipfV
	if v == 0 {
		v = 1
	}
	z := rand.NewZipf(streamRand(seed, streamZipf), p.ZipfS, v, uint64(poolSize-1))
	if z == nil {
		return nil, fmt.Errorf("workload: invalid zipf parameters s=%g v=%g", p.ZipfS, v)
	}
	return func() int { return int(z.Uint64()) }, nil
}

// Engine executes a Generators bundle against a population inside the
// event kernel. All scheduling happens on the single simulator
// goroutine, and every random draw comes from a stream derived from the
// run seed, so a run's byte-determinism contract is preserved for any
// sweep worker count. (The Popularity generator is not run here — it is
// a key picker the traffic generator consumes; see NewZipfPicker.)
type Engine struct {
	sim *eventsim.Simulator
	gen Generators
	pop Population

	arrivals *rand.Rand
	sessions *rand.Rand
	flash    *rand.Rand

	labeled map[string]Session

	joins  int
	leaves int
	err    error
}

// NewEngine builds an engine over an already-validated bundle. Nothing
// happens until Start.
func NewEngine(sim *eventsim.Simulator, gen Generators, seed int64, pop Population) *Engine {
	return &Engine{
		sim: sim, gen: gen, pop: pop,
		arrivals: streamRand(seed, streamArrivals),
		sessions: streamRand(seed, streamSessions),
		flash:    streamRand(seed, streamFlash),
		labeled:  make(map[string]Session),
	}
}

// Joins reports how many generative joins the engine has performed.
func (e *Engine) Joins() int { return e.joins }

// Leaves reports how many generative departures (session ends, trace
// leaves) the engine has performed.
func (e *Engine) Leaves() int { return e.leaves }

// Err returns the first error from a join, or nil. Like a churn
// addition, a failed join never aborts the run.
func (e *Engine) Err() error { return e.err }

// Start schedules the bundle: the Poisson arrival process ticks per
// minute through [arrivalsFrom, until) — the churn window, where the
// paper's membership dynamics live — while flash crowds and trace events
// fire at their own absolute times. Call at virtual time zero, before
// the kernel runs.
func (e *Engine) Start(arrivalsFrom, until time.Duration) error {
	if e.gen.Arrivals != nil {
		if err := e.sim.Every(arrivalsFrom, until, time.Minute, e.minute); err != nil {
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

// minute draws this minute's Poisson arrival count.
func (e *Engine) minute() bool {
	rate := e.gen.Arrivals.rateAt(e.sim.Now())
	for i := poisson(e.arrivals, rate); i > 0; i-- {
		offset := time.Duration(e.arrivals.Int63n(int64(time.Minute)))
		e.sim.MustSchedule(offset, func() { e.join(e.gen.Sessions) })
	}
	return true
}

// scheduleCrowd spreads one flash crowd's joins uniformly over its
// window. The crowd's own session distribution, when set, overrides the
// run's.
func (e *Engine) scheduleCrowd(fc *FlashCrowdSpec) {
	window := fc.WindowMinutes
	if window == 0 {
		window = 1
	}
	sessions := fc.Sessions
	if sessions == nil {
		sessions = e.gen.Sessions
	}
	for i := 0; i < fc.Joins; i++ {
		at := Minutes(fc.AtMinutes + e.flash.Float64()*window)
		e.sim.MustSchedule(at-e.sim.Now(), func() { e.join(sessions) })
	}
}

// join performs one generative join, scheduling the session's departure
// when a lifetime distribution applies.
func (e *Engine) join(sessions *SessionsSpec) {
	sess, err := e.pop.Join()
	if err != nil {
		if e.err == nil {
			e.err = err
		}
		return
	}
	e.joins++
	if sessions != nil {
		life := Minutes(sessions.sample(e.sessions))
		e.sim.MustSchedule(life, func() {
			if sess.End() {
				e.leaves++
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
		sess, err := e.pop.Join()
		if err != nil {
			if e.err == nil {
				e.err = err
			}
			return
		}
		e.joins++
		if ev.Node != "" {
			e.labeled[ev.Node] = sess
		}
	case "leave":
		if ev.Node != "" {
			sess := e.labeled[ev.Node]
			delete(e.labeled, ev.Node)
			if sess != nil && sess.End() {
				e.leaves++
			}
			return
		}
		if e.pop.RemoveRandomNode() {
			e.leaves++
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
		sigma := s.Sigma
		if sigma == 0 {
			sigma = 1
		}
		mu := math.Log(s.MeanMinutes) - sigma*sigma/2
		return math.Exp(mu + sigma*r.NormFloat64())
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
