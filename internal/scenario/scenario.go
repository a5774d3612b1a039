// Package scenario orchestrates the paper's simulation methodology: the
// three phases (setup 0-30 min with randomized joins, stabilization until
// minute 120, then churn), the eight experiment dimensions (network size,
// churn, traffic, message loss, k, alpha, b, s), periodic connectivity
// snapshots, and the named Simulations A-L behind every figure and table
// of the evaluation section.
package scenario

import (
	"fmt"
	"slices"
	"time"

	"kadre/internal/attack"
	"kadre/internal/connectivity"
	"kadre/internal/eventsim"
	"kadre/internal/kademlia"
	"kadre/internal/simnet"
	"kadre/internal/snapshot"
	"kadre/internal/stats"
	"kadre/internal/workload"
)

// Defaults for the paper's simulation phases (§5.4).
const (
	DefaultSetup            = 30 * time.Minute
	DefaultStabilize        = 90 * time.Minute
	DefaultSnapshotInterval = 20 * time.Minute
	// DefaultSampleFraction is the paper's connectivity sampling c.
	DefaultSampleFraction = connectivity.DefaultSampleFraction
)

// Config describes one simulation run (one curve bundle of one figure).
type Config struct {
	// Name labels the run in reports, e.g. "SimE/k=20".
	Name string
	// Seed makes the run reproducible.
	Seed int64
	// Size is the initial network size (paper: 250 and 2500).
	Size int

	// Kademlia parameters (zero values take kademlia's defaults).
	K         int
	Alpha     int
	Bits      int
	Staleness int

	// Loss is the Table 1 message-loss scenario; zero means none, and
	// Validate refuses a level outside the table.
	Loss simnet.LossLevel
	// Churn is the add/remove rate applied during the churn phase.
	Churn workload.ChurnRate
	// Attack configures an adversarial node-removal schedule running in
	// the churn-phase window (zero value: no adversary). Strikes are
	// offset half an attack interval from the phase boundary, so with
	// the preset cadence (Interval == SnapshotInterval) they interleave
	// the periodic snapshots; if a custom interval makes a strike and a
	// snapshot share an instant, the snapshot runs first. Either way a
	// snapshot at time t observes exactly the strikes that fired
	// strictly before t.
	Attack attack.Config
	// Traffic toggles the 10-lookups + 1-dissemination per node per
	// minute workload.
	Traffic bool
	// Workload overrides traffic rates when Traffic is set (explicit
	// zero rates via workload.Disabled); without Traffic, WithDefaults
	// clears it.
	Workload workload.Traffic
	// Gen is the generative workload bundle (heavy-tailed sessions,
	// diurnal arrivals, Zipf popularity, flash crowds, trace replay);
	// the zero value runs none of it. Typically populated from a
	// scenario spec file via FromSpec.
	Gen workload.Generators

	// Phase durations; zero values take the paper defaults (30/90 min).
	Setup      time.Duration
	Stabilize  time.Duration
	ChurnPhase time.Duration

	// SnapshotInterval is the connectivity sampling period.
	SnapshotInterval time.Duration
	// SampleFraction is the connectivity analysis sampling c.
	SampleFraction float64
	// Workers bounds the analysis worker pool (0 = GOMAXPROCS).
	Workers int
	// Governance bounds the long-run memory of the snapshot analysis
	// pipeline: between snapshots the runner compacts the slot table once
	// the policy threshold trips (see connectivity.GovernancePolicy).
	// Maintenance never changes results — only the Result's maintenance
	// counters and the binding diagnostics reflect it — so it is
	// deliberately absent from the
	// sweep checkpoint fingerprint. The zero value takes
	// connectivity.DefaultGovernance; set the threshold negative to
	// disable governance outright.
	Governance connectivity.GovernancePolicy
	// MinOnly skips the Avg half of every snapshot's analysis: each
	// analyzed point's Avg is NaN, and every other field of the Result is
	// exactly what the fused analysis gives. The kadserve arena sets it,
	// because its metrics read no intermediate Avg and the final one comes
	// on demand from the warm Bound. It has no flag or spec field, and like
	// Workers and Governance it is absent from the sweep fingerprint.
	MinOnly bool

	// OnSnapshot, when set, receives every captured snapshot together
	// with its analysis, e.g. for persisting graphs to disk.
	OnSnapshot func(s *snapshot.Snapshot, stat SnapshotStat)
}

// WithDefaults returns the config with zero fields replaced by the paper
// defaults — the exact config a Run executes. Other packages (e.g. sweep
// checkpointing) use it to reconstruct a run's effective configuration.
func (c Config) WithDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Setup == 0 {
		c.Setup = DefaultSetup
	}
	if c.Stabilize == 0 {
		c.Stabilize = DefaultStabilize
	}
	if c.SnapshotInterval == 0 {
		c.SnapshotInterval = DefaultSnapshotInterval
	}
	if c.SampleFraction == 0 {
		c.SampleFraction = DefaultSampleFraction
	}
	if c.Loss == 0 {
		c.Loss = simnet.LossNone
	}
	kc := c.kademliaConfig().WithDefaults()
	c.K, c.Alpha, c.Bits, c.Staleness = kc.K, kc.Alpha, kc.Bits, kc.StalenessLimit
	// The traffic rates shape a run only when it sends traffic: a traffic
	// run carries its effective rates and key pool, a run without traffic
	// none, so each workload has one key whichever way it was spelled.
	if c.Traffic {
		c.Workload = c.Workload.WithDefaults()
	} else {
		c.Workload = workload.Traffic{}
	}
	c.Gen = c.Gen.WithDefaults()
	if c.Governance == (connectivity.GovernancePolicy{}) {
		c.Governance = connectivity.DefaultGovernance()
	}
	if c.Attack.Enabled() {
		// The adversary's cutset analyzer inherits the run's sampling
		// unless configured explicitly.
		if c.Attack.SampleFraction == 0 {
			c.Attack.SampleFraction = c.SampleFraction
		}
		c.Attack = c.Attack.WithDefaults()
	}
	return c
}

// Validate checks a defaulted config.
func (c Config) Validate() error {
	if c.Size < 2 {
		return fmt.Errorf("scenario: size %d must be >= 2", c.Size)
	}
	if c.Setup <= 0 || c.Stabilize < 0 || c.ChurnPhase < 0 {
		return fmt.Errorf("scenario: invalid phase durations %v/%v/%v", c.Setup, c.Stabilize, c.ChurnPhase)
	}
	if c.SnapshotInterval <= 0 {
		return fmt.Errorf("scenario: snapshot interval must be positive")
	}
	// An unknown level would run lossless under a key of its own.
	if !slices.Contains(simnet.Levels(), c.Loss) {
		return fmt.Errorf("scenario: loss level %v is not one of Table 1's %v", c.Loss, simnet.Levels())
	}
	if err := connectivity.CheckSampleFraction(c.SampleFraction); err != nil {
		return err
	}
	if !c.Churn.IsZero() && c.ChurnPhase == 0 {
		return fmt.Errorf("scenario: churn rate %v with zero churn phase", c.Churn)
	}
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if c.Gen.Arrivals != nil && c.ChurnPhase == 0 {
		return fmt.Errorf("scenario: generative arrivals with zero churn phase")
	}
	if err := c.Gen.Validate(c.Total().Minutes(), c.Traffic); err != nil {
		return err
	}
	if c.Attack.Enabled() {
		if c.ChurnPhase == 0 {
			return fmt.Errorf("scenario: attack %v with zero churn phase", c.Attack)
		}
		if err := c.Attack.Validate(); err != nil {
			return err
		}
		if !c.Attack.Target.IsZeroValue() && c.Attack.Target.Bits() != c.Bits {
			return fmt.Errorf("scenario: attack target bit-length %d != network %d",
				c.Attack.Target.Bits(), c.Bits)
		}
	}
	// The protocol fields Config does not carry default as in NewNode.
	return c.kademliaConfig().WithDefaults().Validate()
}

// ChurnStart returns the virtual time at which the churn phase begins
// (minute 120 under paper defaults).
func (c Config) ChurnStart() time.Duration { return c.Setup + c.Stabilize }

// Total returns the full duration of the run.
func (c Config) Total() time.Duration { return c.Setup + c.Stabilize + c.ChurnPhase }

// ExpectedCost estimates the run's wall time, in units that only compare
// runs with one another: the simulator's work grows with the node count,
// with k (every lookup response carries up to k contacts) and with the
// simulated time. A sweep dispatches its costliest runs first by it.
func (c Config) ExpectedCost() float64 {
	c = c.WithDefaults()
	return float64(c.Size) * float64(c.K) * c.Total().Seconds()
}

func (c Config) kademliaConfig() kademlia.Config {
	return kademlia.Config{
		Bits:           c.Bits,
		K:              c.K,
		Alpha:          c.Alpha,
		StalenessLimit: c.Staleness,
	}
}

// SnapshotStat is the per-snapshot measurement: the paper's plotted
// quantities at one instant.
type SnapshotStat struct {
	Time     time.Duration
	N        int     // live network size
	Edges    int     // routing-table edges
	Symmetry float64 // fraction of edges with a reverse edge
	Min      int     // minimum connectivity (smallest-out-degree sampled)
	Avg      float64 // average pair connectivity (uniform sampled)
	SCC      float64 // largest strongly-connected-component fraction
	Removed  int     // cumulative adversarial removals at snapshot time
}

// Result is the outcome of one run. Its JSON encoding is the sweep
// checkpoint's wire form: every measurement round-trips exactly
// (Durations as nanoseconds), while Config — the job's, restored by the
// loader — the wall-clock Elapsed and the event check (Fingerprint,
// Events) stay out.
type Result struct {
	Config       Config `json:"-"`
	Points       []SnapshotStat
	ChurnAdded   int
	ChurnRemoved int
	TrafficOps   int
	// WorkloadJoins and WorkloadLeaves count the generative workload
	// engine's membership actions (arrivals, flash-crowd joins, session
	// ends, trace events); zero when no generator is configured.
	WorkloadJoins  int
	WorkloadLeaves int
	// AttackRemoved counts nodes the adversary removed; Victims logs
	// them in strike order (nil when no attack is configured).
	AttackRemoved int
	Victims       []attack.Victim
	// IncrementalBinds and FullBinds count how the per-snapshot analyses
	// bound the connectivity engine. With stable-slot population indexing
	// a snapshot rebinds incrementally whenever the slot table did not
	// grow — joins, churn departures and adversarial strikes included —
	// so full binds are confined to the first snapshot and new
	// all-time-high live counts (the setup joins, in practice).
	// Diagnostics only — not part of the sweep JSON schema.
	IncrementalBinds int
	FullBinds        int
	// MembershipRebinds counts the incremental binds that crossed a
	// membership change (a subset of IncrementalBinds): snapshots whose
	// joins, departures or strikes were absorbed by stable-slot rebinding
	// instead of a full rebuild.
	MembershipRebinds int
	// Memory-governance outcome (part of the sweep JSON schema, so every
	// value here is deterministic for a config and independent of the
	// worker count). SlotCompactions counts the slot-table compactions
	// performed between snapshots; SlotUtilization is the end-of-run
	// footprint reading — live slots over the table length, held at or
	// above 1/(1+MaxSlotSlack) by the policy.
	SlotCompactions int
	SlotUtilization float64
	Network         simnet.Stats
	Elapsed         time.Duration `json:"-"` // wall-clock cost of the run
	// Fingerprint is the network's rolling hash of every message sent
	// (simnet.Network.Fingerprint) and Events the number of events the
	// kernel fired: a check that a change moved no event. Like Elapsed
	// they stay out of the JSON, so a run replayed from a checkpoint
	// carries neither.
	Fingerprint uint64 `json:"-"`
	Events      uint64 `json:"-"`
}

// MinSeries returns the minimum-connectivity time series.
func (r *Result) MinSeries() *stats.Series {
	s := &stats.Series{Name: r.Config.Name + "/min"}
	for _, p := range r.Points {
		s.MustAdd(p.Time, float64(p.Min))
	}
	return s
}

// AvgSeries returns the average-connectivity time series.
func (r *Result) AvgSeries() *stats.Series {
	s := &stats.Series{Name: r.Config.Name + "/avg"}
	for _, p := range r.Points {
		s.MustAdd(p.Time, p.Avg)
	}
	return s
}

// SCCSeries returns the largest-SCC-fraction time series.
func (r *Result) SCCSeries() *stats.Series {
	s := &stats.Series{Name: r.Config.Name + "/scc"}
	for _, p := range r.Points {
		s.MustAdd(p.Time, p.SCC)
	}
	return s
}

// SizeSeries returns the live-network-size time series.
func (r *Result) SizeSeries() *stats.Series {
	s := &stats.Series{Name: r.Config.Name + "/size"}
	for _, p := range r.Points {
		s.MustAdd(p.Time, float64(p.N))
	}
	return s
}

// RemovedSeries returns the cumulative adversarial-removal time series.
func (r *Result) RemovedSeries() *stats.Series {
	s := &stats.Series{Name: r.Config.Name + "/removed"}
	for _, p := range r.Points {
		s.MustAdd(p.Time, float64(p.Removed))
	}
	return s
}

// ChurnWindowSummary summarizes the minimum connectivity during the churn
// phase — the quantity behind Table 2 and Figure 10.
func (r *Result) ChurnWindowSummary() stats.Summary {
	return stats.Summarize(r.MinSeries().Window(r.Config.ChurnStart(), r.Config.Total()))
}

// population implements workload.Population and attack.Population over
// the evolving node set. Vertex identity across captures is carried by
// stable-slot indexing (snapshot.SlotIndex) on the capture side — a
// node's address is its persistent identity, so the runner's slot table
// rebinds incrementally across joins, departures and strikes without the
// population having to track generations.
type population struct {
	sim      *eventsim.Simulator
	net      *simnet.Network
	cfg      kademlia.Config
	nodes    []*kademlia.Node
	nextAddr simnet.Addr
	live     []*kademlia.Node // LiveNodes' result, reused by every call
}

var (
	_ workload.Population = (*population)(nil)
	_ attack.Population   = (*population)(nil)
)

// LiveNodes implements workload.Population. The result is valid until the
// next call: every spawn and random removal asks for it, so every call
// refills one scratch slice.
func (p *population) LiveNodes() []*kademlia.Node {
	p.live = p.live[:0]
	for _, n := range p.nodes {
		if n.Running() {
			p.live = append(p.live, n)
		}
	}
	return p.live
}

// RemoveRandomNode implements workload.Population, for churn departures
// and unlabeled trace leaves: a uniformly chosen live node leaves
// silently.
func (p *population) RemoveRandomNode() bool {
	live := p.LiveNodes()
	if len(live) == 0 {
		return false
	}
	live[p.sim.Rand().Intn(len(live))].Leave()
	return true
}

// Capture implements attack.Population: the adversary's reconnaissance
// is the dense routing-table capture of the live nodes.
func (p *population) Capture() *snapshot.Snapshot {
	return snapshot.Capture(p.sim.Now(), p.nodes)
}

// RemoveNode implements attack.Population: the live node at addr leaves
// silently, exactly like a churn departure.
func (p *population) RemoveNode(addr simnet.Addr) bool {
	for _, n := range p.nodes {
		if n.Addr() == addr && n.Running() {
			n.Leave()
			return true
		}
	}
	return false
}

// Join implements workload.Population: a fresh node starts and joins via
// a random live bootstrap node. The session handle lets the workload
// engine end the node when its sampled (or trace-recorded) lifetime
// expires; a churn addition drops it.
func (p *population) Join() (workload.Session, error) {
	node, err := p.spawn()
	if err != nil {
		return nil, err
	}
	return nodeSession{node}, nil
}

// nodeSession adapts one node to workload.Session: ending the session is
// a silent churn-style departure, a no-op when churn or an adversary got
// to the node first.
type nodeSession struct{ node *kademlia.Node }

func (s nodeSession) End() bool {
	if !s.node.Running() {
		return false
	}
	s.node.Leave()
	return true
}

// spawn creates, starts, and (when a bootstrap exists) joins one node.
func (p *population) spawn() (*kademlia.Node, error) {
	live := p.LiveNodes()
	addr := p.nextAddr
	p.nextAddr++
	node, err := kademlia.NewNode(p.cfg, addr, p.net)
	if err != nil {
		return nil, fmt.Errorf("scenario: spawn: %w", err)
	}
	if err := node.Start(); err != nil {
		return nil, fmt.Errorf("scenario: spawn: %w", err)
	}
	p.nodes = append(p.nodes, node)
	if len(live) > 0 {
		bootstrap := live[p.sim.Rand().Intn(len(live))]
		if err := node.Join(bootstrap.Contact(), nil); err != nil {
			return nil, fmt.Errorf("scenario: join: %w", err)
		}
	}
	return node, nil
}
