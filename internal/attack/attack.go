// Package attack implements an adversarial node-removal engine for the
// simulated Kademlia network. The paper evaluates connection resilience
// only under random churn (§5.3); this package extends the methodology to
// an adversary who *chooses* which nodes to kill: on a configurable
// schedule it inspects a fresh connectivity snapshot and removes the
// nodes a strategy nominates — by degree, by membership in a minimum
// vertex cut (attacking the paper's own metric), by XOR proximity to a
// victim region of the keyspace (eclipse), or uniformly at random (the
// baseline that ties back to the paper's churn results).
//
// Reconnaissance is one dense routing-table capture per strike —
// snapshot.Capture, the fresh-index case of the runner's stable-slot
// capture — so victims are dense ranks of that capture and are removed by
// address. The engine runs inside the deterministic event kernel and
// draws randomness only from the simulator's seeded generator, so attack
// runs are reproducible under seeds and parallel sweeps exactly like
// every other experiment.
package attack

import (
	"fmt"
	"strings"
	"time"

	"kadre/internal/connectivity"
	"kadre/internal/eventsim"
	"kadre/internal/id"
	"kadre/internal/simnet"
	"kadre/internal/snapshot"
)

// Strategy names a victim-selection policy.
type Strategy string

// The built-in strategies.
const (
	// Random removes uniformly chosen nodes — the adversarial-schedule
	// baseline comparable to the paper's random churn.
	Random Strategy = "random"
	// Degree removes the nodes with the highest degree (out-degree plus
	// in-degree in the latest snapshot): the classic hub attack.
	Degree Strategy = "degree"
	// Cutset removes nodes on a minimum vertex cut of the latest
	// snapshot, found by the connectivity analyzer — an adversary that
	// attacks the resilience metric itself.
	Cutset Strategy = "cutset"
	// Eclipse removes the nodes closest by XOR distance to a target
	// identifier, isolating a victim's keyspace region.
	Eclipse Strategy = "eclipse"
)

// Strategies returns every built-in strategy in canonical order.
func Strategies() []Strategy {
	return []Strategy{Random, Degree, Cutset, Eclipse}
}

// ParseStrategy resolves a strategy name.
func ParseStrategy(s string) (Strategy, error) {
	switch Strategy(strings.TrimSpace(s)) {
	case Random:
		return Random, nil
	case Degree:
		return Degree, nil
	case Cutset:
		return Cutset, nil
	case Eclipse:
		return Eclipse, nil
	default:
		return "", fmt.Errorf("attack: unknown strategy %q (random, degree, cutset, eclipse)", s)
	}
}

// Config describes one adversary.
type Config struct {
	// Strategy selects the victim policy; empty means no attack.
	Strategy Strategy
	// Budget is the total number of nodes the adversary may remove over
	// the whole attack window; <= 0 means unlimited (bounded only by the
	// window and the population floor).
	Budget int
	// Kills is the number of nodes removed per strike (default 1).
	Kills int
	// Interval is the time between strikes (default 1 minute).
	Interval time.Duration
	// Target is the keyspace identifier an Eclipse adversary isolates.
	// The zero value derives a deterministic target from a fixed label,
	// so runs stay reproducible without explicit configuration.
	Target id.ID
	// SampleFraction is the connectivity sampling c used by the Cutset
	// strategy's analyzer (default connectivity.DefaultSampleFraction).
	SampleFraction float64
}

// Enabled reports whether the config describes an actual adversary.
func (c Config) Enabled() bool { return c.Strategy != "" }

// WithDefaults fills zero fields with their defaults.
func (c Config) WithDefaults() Config {
	if !c.Enabled() {
		return c
	}
	if c.Kills == 0 {
		c.Kills = 1
	}
	if c.Interval == 0 {
		c.Interval = time.Minute
	}
	if c.SampleFraction == 0 {
		c.SampleFraction = connectivity.DefaultSampleFraction
	}
	return c
}

// Validate checks a defaulted config.
func (c Config) Validate() error {
	if !c.Enabled() {
		return nil
	}
	if _, err := ParseStrategy(string(c.Strategy)); err != nil {
		return err
	}
	if c.Kills < 0 {
		return fmt.Errorf("attack: kills %d must be >= 0", c.Kills)
	}
	if c.Interval <= 0 {
		return fmt.Errorf("attack: interval %v must be positive", c.Interval)
	}
	return connectivity.CheckSampleFraction(c.SampleFraction)
}

// String renders the adversary in a compact budget@interval notation.
func (c Config) String() string {
	if !c.Enabled() {
		return "none"
	}
	budget := "∞"
	if c.Budget > 0 {
		budget = fmt.Sprintf("%d", c.Budget)
	}
	return fmt.Sprintf("%s(%dx per %v, budget %s)", c.Strategy, c.Kills, c.Interval, budget)
}

// Population is the adversary's view of the network: it can observe the
// current connectivity graph (the paper's snapshot methodology turned
// into reconnaissance) and kill a specific node. The scenario population
// implements it alongside the churn and traffic views.
type Population interface {
	// Capture returns the current connectivity graph as a dense snapshot:
	// live nodes in canonical order, one vertex per node, so a victim's
	// rank indexes the capture's Addrs and IDs directly.
	Capture() *snapshot.Snapshot
	// RemoveNode makes the live node at addr leave silently; it reports
	// false when no live node has that address.
	RemoveNode(addr simnet.Addr) bool
}

// Victim records one successful removal.
type Victim struct {
	// Time is the virtual instant of the strike.
	Time time.Duration
	// Addr and ID identify the removed node.
	Addr simnet.Addr
	ID   id.ID
}

// Engine schedules and executes strikes. Create with NewEngine; nothing
// happens until Start. Every strike captures the network afresh; only the
// cutset strategy's analysis engine outlives a strike.
type Engine struct {
	sim    *eventsim.Simulator
	cfg    Config
	pop    Population
	target id.ID // resolved eclipse target

	// conn is the cutset strategy's reusable analysis engine: one
	// instance serves every strike, binding each reconnaissance capture
	// in full, so its solver scratch is sized once per engine and reused
	// per strike (nil for the other strategies, which need no flow
	// analysis).
	conn *connectivity.Engine

	victims []Victim
	strikes int
}

// NewEngine validates the config and builds an engine.
func NewEngine(sim *eventsim.Simulator, cfg Config, pop Population) (*Engine, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{sim: sim, cfg: cfg, pop: pop, target: cfg.Target}
	if cfg.Strategy == Cutset {
		e.conn = connectivity.MustNewEngine(connectivity.EngineOptions{})
	}
	return e, nil
}

// Removed reports how many nodes the adversary has removed so far.
func (e *Engine) Removed() int { return len(e.victims) }

// Strikes reports how many strikes have executed (including strikes that
// removed nothing).
func (e *Engine) Strikes() int { return e.strikes }

// Victims returns the removal log in strike order.
func (e *Engine) Victims() []Victim { return e.victims }

// Start schedules strikes from virtual time `from` until `until`, one
// every Interval starting at `from` itself. A disabled config starts
// nothing.
func (e *Engine) Start(from, until time.Duration) error {
	if !e.cfg.Enabled() {
		return nil
	}
	if err := e.sim.Every(from, until, e.cfg.Interval, e.strike); err != nil {
		return fmt.Errorf("attack: %w", err)
	}
	return nil
}

// budgetLeft returns how many removals remain, or a large count for an
// unlimited budget.
func (e *Engine) budgetLeft() int {
	if e.cfg.Budget <= 0 {
		return int(^uint(0) >> 1) // MaxInt
	}
	return e.cfg.Budget - len(e.victims)
}

// strike executes one attack round: capture, select, remove. It reports
// whether budget is left for another. Reconnaissance is one dense capture
// for every strategy, so victims index its Addrs/IDs directly.
func (e *Engine) strike() bool {
	now := e.sim.Now()
	e.strikes++

	s := e.pop.Capture()
	count := e.cfg.Kills
	if left := e.budgetLeft(); count > left {
		count = left
	}
	// Never kill the network outright: the adversary leaves at least two
	// nodes standing, so post-strike snapshots remain analyzable.
	if floor := s.N() - 2; count > floor {
		count = floor
	}
	for _, v := range e.selectVictims(s, count) {
		if e.pop.RemoveNode(s.Addrs[v]) {
			e.victims = append(e.victims, Victim{Time: now, Addr: s.Addrs[v], ID: s.IDs[v]})
		}
	}
	return e.budgetLeft() > 0
}
