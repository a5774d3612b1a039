// Package workload is everything a run does to its population, and the
// declarative specs that say what that is. The paper's workload is data
// traffic (every node performs 10 lookups and 1 dissemination per
// minute) and fixed-rate churn (nodes added and removed per minute from
// minute 120), both from §5.3. The generative layer adds heavy-tailed
// session lengths, diurnal arrival curves, Zipf-popular lookup targets,
// flash-crowd join bursts and replay of recorded join/leave traces. One
// Engine runs all of them inside the event kernel.
//
// Scenario specs are versioned JSON files. A spec file opens a new
// experiment axis without recompiling: the CLIs load it with -scenario
// <file>, kadserve accepts it embedded in a query body, and the
// experiment catalogue itself is the spec files under specs/, embedded
// into the binaries. A run's "size" is a node count or "small"/"large",
// the resolving scale's two sizes.
//
// Traffic and fixed-rate churn draw from the kernel RNG, exactly as the
// paper's simulator did. Every generative generator draws from its own
// splitmix64-derived random stream (seeded from the run seed, one stream
// tag per generator). All actions run inside the single-goroutine event
// kernel, so results are byte-identical for any worker count — the same
// contract the rest of the experiment pipeline is pinned to.
package workload

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// SpecVersion is the only supported spec format version. Specs must
// declare it explicitly so a future format change can never silently
// reinterpret an old file.
const SpecVersion = 1

// Spec is one scenario spec file: an experiment identifier plus the runs
// that regenerate it. Defaults apply to every run field a run leaves
// unset; a run's own fields win. Decoding is strict — unknown fields are
// a load error, never silently dropped knobs.
type Spec struct {
	// Version must be SpecVersion.
	Version int `json:"version"`
	// ID is the experiment tag ("figure2", "flash-crowd", ...); it names
	// the JSON artefact exactly like a catalogue experiment id.
	ID string `json:"id"`
	// Title describes the experiment in reports.
	Title string `json:"title,omitempty"`
	// Scale optionally pins the resolution scale (paper, reduced, tiny);
	// empty defers to the loader (the CLI -scale flag).
	Scale string `json:"scale,omitempty"`
	// Defaults seeds every run's unset fields.
	Defaults *RunSpec `json:"defaults,omitempty"`
	// Runs are the experiment's configurations.
	Runs []RunSpec `json:"runs"`
}

// RunSpec is the declarative form of one run. Every field is a pointer
// (or a reference type) so that "unset — take the scale/paper default"
// and "explicitly zero" stay distinguishable: a spec can turn lookups
// off without the config layer coercing the 0 back to the paper's 10.
// A field whose 0 the config layer would replace by a default (k,
// alpha, bits, staleness, key_pool and the setup, stabilize and snapshot
// lengths) rejects an explicit 0 instead. Durations are simulated minutes.
type RunSpec struct {
	// Name labels the run; required on every resolved run.
	Name string `json:"name,omitempty"`
	// SeedOffset is added to the loader's base seed (default 0).
	SeedOffset *int64 `json:"seed_offset,omitempty"`

	Size      *Size   `json:"size,omitempty"`
	K         *int    `json:"k,omitempty"`
	Alpha     *int    `json:"alpha,omitempty"`
	Bits      *int    `json:"bits,omitempty"`
	Staleness *int    `json:"staleness,omitempty"`
	Loss      *string `json:"loss,omitempty"`  // none, low, med, high
	Churn     *string `json:"churn,omitempty"` // "add/remove" per minute

	// ChurnMinutes sets the churn-phase length; DrainChurn instead derives
	// the paper's Sim A-D drain window from the network size. At most one
	// may be set.
	ChurnMinutes *float64 `json:"churn_minutes,omitempty"`
	DrainChurn   *bool    `json:"drain_churn,omitempty"`

	// Traffic toggles the per-node lookup/store workload; the per-minute
	// rates accept explicit 0 ("lookups off, stores on") independently.
	Traffic          *bool `json:"traffic,omitempty"`
	LookupsPerMinute *int  `json:"lookups_per_minute,omitempty"`
	StoresPerMinute  *int  `json:"stores_per_minute,omitempty"`
	KeyPool          *int  `json:"key_pool,omitempty"`

	SetupMinutes     *float64 `json:"setup_minutes,omitempty"`
	StabilizeMinutes *float64 `json:"stabilize_minutes,omitempty"`
	SnapshotMinutes  *float64 `json:"snapshot_minutes,omitempty"`
	SampleFraction   *float64 `json:"sample_fraction,omitempty"`

	// Attack rides the churn window (see the attack package).
	Attack *AttackSpec `json:"attack,omitempty"`

	// The generative layer.
	Sessions    *SessionsSpec    `json:"sessions,omitempty"`
	Arrivals    *ArrivalsSpec    `json:"arrivals,omitempty"`
	Popularity  *PopularitySpec  `json:"popularity,omitempty"`
	FlashCrowds []FlashCrowdSpec `json:"flash_crowds,omitempty"`
	Trace       *TraceSpec       `json:"trace,omitempty"`
}

// Size is a run's network size: a node count, or "small" or "large" for
// the resolving scale's two sizes, so one spec names the paper's large
// network at every scale. It encodes back to the form it was decoded
// from.
type Size struct {
	// Nodes is the explicit node count, used when Name is empty.
	Nodes int
	// Name is "small" or "large", or empty for an explicit count.
	Name string
}

// MarshalJSON writes the name if there is one, else the count.
func (s Size) MarshalJSON() ([]byte, error) {
	if s.Name != "" {
		return json.Marshal(s.Name)
	}
	return json.Marshal(s.Nodes)
}

// UnmarshalJSON reads a JSON string as a name and anything else as a
// count; RunSpec's check decides whether the name is one it knows.
func (s *Size) UnmarshalJSON(data []byte) error {
	*s = Size{}
	if len(data) > 0 && data[0] == '"' {
		return json.Unmarshal(data, &s.Name)
	}
	return json.Unmarshal(data, &s.Nodes)
}

func (s *Size) check() error {
	switch {
	case s == nil:
		return nil
	case s.Name == "":
		return nonNegative("size", &s.Nodes)
	case s.Name != "small" && s.Name != "large":
		return fmt.Errorf("size %q is not small, large or a node count", s.Name)
	}
	return nil
}

// AttackSpec is the declarative adversary. Omitted fields take the
// scale's canonical attack (budget half the network, spread evenly over
// the strikes that fit the window).
type AttackSpec struct {
	Strategy        string  `json:"strategy"` // random, degree, cutset, eclipse
	Budget          *int    `json:"budget,omitempty"`
	Kills           *int    `json:"kills,omitempty"`
	IntervalMinutes float64 `json:"interval_minutes,omitempty"`
}

// SessionsSpec draws heavy-tailed session lengths for generatively
// joined nodes (arrivals and flash crowds): each join schedules its own
// departure after a sampled lifetime.
type SessionsSpec struct {
	// Dist is "lognormal" or "pareto".
	Dist string `json:"dist"`
	// MeanMinutes and Sigma parameterize the lognormal: the distribution
	// mean is MeanMinutes, Sigma its log-space shape (default 1, filled by
	// Generators.WithDefaults like the other generator defaults).
	MeanMinutes float64 `json:"mean_minutes,omitempty"`
	Sigma       float64 `json:"sigma,omitempty"`
	// MinMinutes and Alpha parameterize the Pareto: scale x_m (the
	// minimum session) and tail index alpha.
	MinMinutes float64 `json:"min_minutes,omitempty"`
	Alpha      float64 `json:"alpha,omitempty"`
}

// ArrivalsSpec generates node joins through the churn window as a
// per-minute Poisson process, optionally modulated by a diurnal curve.
type ArrivalsSpec struct {
	RatePerMinute float64      `json:"rate_per_minute"`
	Diurnal       *DiurnalSpec `json:"diurnal,omitempty"`
}

// DiurnalSpec modulates an arrival rate sinusoidally over simulated
// time: rate(t) = base * (1 + Amplitude * sin(2*pi*(t-Phase)/Period)),
// clamped at zero.
type DiurnalSpec struct {
	PeriodMinutes float64 `json:"period_minutes"`
	Amplitude     float64 `json:"amplitude"`
	PhaseMinutes  float64 `json:"phase_minutes,omitempty"`
}

// PopularitySpec skews lookup/store key selection: keys are drawn
// Zipf(s, v) over the key pool instead of uniformly, concentrating the
// workload on a popular head exactly like measured KAD object traffic.
type PopularitySpec struct {
	// ZipfS is the exponent (> 1).
	ZipfS float64 `json:"zipf_s"`
	// ZipfV offsets the ranks (>= 1; default 1).
	ZipfV float64 `json:"zipf_v,omitempty"`
}

// FlashCrowdSpec injects a join burst: Joins nodes arrive at uniformly
// random instants within [AtMinutes, AtMinutes+WindowMinutes). Sessions,
// when set, gives the crowd its own lifetime distribution (otherwise the
// run's Sessions applies; with neither, crowd nodes stay).
type FlashCrowdSpec struct {
	AtMinutes     float64       `json:"at_minutes"`
	Joins         int           `json:"joins"`
	WindowMinutes float64       `json:"window_minutes,omitempty"` // default 1
	Sessions      *SessionsSpec `json:"sessions,omitempty"`
}

// TraceSpec replays a recorded join/leave trace. Path names a JSONL file
// (one TraceEvent per line, resolved relative to the spec file); Events
// inlines the trace directly — the form an embedded kadserve spec uses.
// A spec sets one of the two; after loading, Events always holds the
// resolved trace.
type TraceSpec struct {
	Path   string       `json:"path,omitempty"`
	Events []TraceEvent `json:"events,omitempty"`
}

// TraceEvent is one recorded action. A join with a Node label registers
// the node under that label; a leave with a label removes that specific
// node (an error if it never joined or already left), and a leave
// without a label removes a uniformly random live node.
type TraceEvent struct {
	TMin float64 `json:"t_min"`
	Op   string  `json:"op"` // join | leave
	Node string  `json:"node,omitempty"`
}

// Generators is the resolved generative-workload bundle one run
// executes — the merged spec fields, with any trace fully loaded. The
// zero value runs nothing.
type Generators struct {
	Sessions    *SessionsSpec    `json:"sessions,omitempty"`
	Arrivals    *ArrivalsSpec    `json:"arrivals,omitempty"`
	Popularity  *PopularitySpec  `json:"popularity,omitempty"`
	FlashCrowds []FlashCrowdSpec `json:"flash_crowds,omitempty"`
	Trace       *TraceSpec       `json:"trace,omitempty"`
}

// Enabled reports whether any generator is configured.
func (g Generators) Enabled() bool {
	return g.Sessions != nil || g.Arrivals != nil || g.Popularity != nil ||
		len(g.FlashCrowds) > 0 || g.Trace != nil
}

// WithDefaults fills the parameters a spec may leave unset: a lognormal
// sigma of 1, a zipf_v of 1 and a flash-crowd window of 1 minute. It
// copies whatever it fills, never writing through a pointer, because the
// runs of one spec share their blocks. The result is a fixed point.
func (g Generators) WithDefaults() Generators {
	g.Sessions = g.Sessions.withDefaults()
	if p := g.Popularity; p != nil && p.ZipfV == 0 {
		c := *p
		c.ZipfV = 1
		g.Popularity = &c
	}
	g.FlashCrowds = slices.Clone(g.FlashCrowds)
	for i := range g.FlashCrowds {
		fc := &g.FlashCrowds[i]
		if fc.WindowMinutes == 0 {
			fc.WindowMinutes = 1
		}
		fc.Sessions = fc.Sessions.withDefaults()
	}
	return g
}

// withDefaults gives a lognormal without a sigma the sigma 1, in a copy.
func (s *SessionsSpec) withDefaults() *SessionsSpec {
	if s == nil || s.Dist != "lognormal" || s.Sigma != 0 {
		return s
	}
	c := *s
	c.Sigma = 1
	return &c
}

// Canon renders the bundle canonically for run fingerprints: two runs
// with the same Canon execute the same generative workload. Empty for
// the zero value, so fingerprints of generator-free runs are unchanged
// from before the workload layer existed.
func (g Generators) Canon() string {
	if !g.Enabled() {
		return ""
	}
	// A loaded trace is its events: the file it came from names no part
	// of the run, so a trace read from a file and the same events inline
	// are one run.
	if t := g.Trace; t != nil && t.Path != "" && len(t.Events) > 0 {
		g.Trace = &TraceSpec{Events: t.Events}
	}
	// Struct-ordered json.Marshal is deterministic; the trace rides along
	// through Events, so an edited trace file changes the canon too.
	b, err := json.Marshal(g)
	if err != nil {
		// Generators hold only plain data; Marshal cannot fail on them.
		panic(fmt.Sprintf("workload: canon: %v", err))
	}
	return string(b)
}

// Validate checks the bundle against the run it is attached to.
// totalMinutes is the run's full length, withTraffic whether the run
// generates lookup/store traffic (Popularity needs it).
func (g Generators) Validate(totalMinutes float64, withTraffic bool) error {
	if g.Sessions != nil {
		if err := g.Sessions.validate(); err != nil {
			return err
		}
		if g.Arrivals == nil && len(g.FlashCrowds) == 0 {
			return fmt.Errorf("workload: sessions need a join source (arrivals or flash_crowds)")
		}
	}
	if g.Arrivals != nil {
		if err := g.Arrivals.validate(); err != nil {
			return err
		}
	}
	if g.Popularity != nil {
		if err := g.Popularity.validate(); err != nil {
			return err
		}
		if !withTraffic {
			return fmt.Errorf("workload: popularity requires traffic")
		}
	}
	for i, fc := range g.FlashCrowds {
		if err := fc.validate(); err != nil {
			return fmt.Errorf("workload: flash_crowds[%d]: %w", i, err)
		}
		if fc.AtMinutes >= totalMinutes {
			return fmt.Errorf("workload: flash_crowds[%d] at %gm is past the run end %gm",
				i, fc.AtMinutes, totalMinutes)
		}
	}
	if g.Trace != nil {
		if len(g.Trace.Events) == 0 {
			return fmt.Errorf("workload: trace has no events (path %q unresolved?)", g.Trace.Path)
		}
		for i, ev := range g.Trace.Events {
			if ev.TMin > totalMinutes {
				return fmt.Errorf("workload: trace event %d at %gm is past the run end %gm",
					i, ev.TMin, totalMinutes)
			}
		}
	}
	return nil
}

func (s *SessionsSpec) validate() error {
	switch s.Dist {
	case "lognormal":
		if s.MeanMinutes <= 0 {
			return fmt.Errorf("workload: lognormal sessions need mean_minutes > 0 (got %g)", s.MeanMinutes)
		}
		if s.Sigma < 0 {
			return fmt.Errorf("workload: lognormal sigma %g is negative", s.Sigma)
		}
		if s.MinMinutes != 0 || s.Alpha != 0 {
			return fmt.Errorf("workload: lognormal sessions take mean_minutes/sigma, not min_minutes/alpha")
		}
	case "pareto":
		if s.MinMinutes <= 0 {
			return fmt.Errorf("workload: pareto sessions need min_minutes > 0 (got %g)", s.MinMinutes)
		}
		if s.Alpha <= 0 {
			return fmt.Errorf("workload: pareto sessions need alpha > 0 (got %g)", s.Alpha)
		}
		if s.MeanMinutes != 0 || s.Sigma != 0 {
			return fmt.Errorf("workload: pareto sessions take min_minutes/alpha, not mean_minutes/sigma")
		}
	default:
		return fmt.Errorf("workload: unknown session dist %q (lognormal, pareto)", s.Dist)
	}
	return nil
}

func (a *ArrivalsSpec) validate() error {
	if a.RatePerMinute <= 0 {
		return fmt.Errorf("workload: arrivals need rate_per_minute > 0 (got %g)", a.RatePerMinute)
	}
	if d := a.Diurnal; d != nil {
		if d.PeriodMinutes <= 0 {
			return fmt.Errorf("workload: diurnal period_minutes %g must be positive", d.PeriodMinutes)
		}
		if d.Amplitude < 0 || d.Amplitude > 1 {
			return fmt.Errorf("workload: diurnal amplitude %g outside [0,1]", d.Amplitude)
		}
	}
	return nil
}

func (p *PopularitySpec) validate() error {
	if p.ZipfS <= 1 {
		return fmt.Errorf("workload: zipf_s %g must be > 1", p.ZipfS)
	}
	if p.ZipfV != 0 && p.ZipfV < 1 {
		return fmt.Errorf("workload: zipf_v %g must be >= 1", p.ZipfV)
	}
	return nil
}

func (fc *FlashCrowdSpec) validate() error {
	if fc.AtMinutes < 0 {
		return fmt.Errorf("at_minutes %g is negative", fc.AtMinutes)
	}
	if fc.Joins < 1 {
		return fmt.Errorf("joins %d must be >= 1", fc.Joins)
	}
	if fc.WindowMinutes < 0 {
		return fmt.Errorf("window_minutes %g is negative", fc.WindowMinutes)
	}
	if fc.Sessions != nil {
		return fc.Sessions.validate()
	}
	return nil
}

// Merge overlays run onto defaults: every field the run sets wins, every
// field it leaves nil falls back to the defaults block.
func Merge(defaults *RunSpec, run RunSpec) RunSpec {
	if defaults == nil {
		return run
	}
	out := *defaults
	out.Name = run.Name
	if run.SeedOffset != nil {
		out.SeedOffset = run.SeedOffset
	}
	if run.Size != nil {
		out.Size = run.Size
	}
	if run.K != nil {
		out.K = run.K
	}
	if run.Alpha != nil {
		out.Alpha = run.Alpha
	}
	if run.Bits != nil {
		out.Bits = run.Bits
	}
	if run.Staleness != nil {
		out.Staleness = run.Staleness
	}
	if run.Loss != nil {
		out.Loss = run.Loss
	}
	if run.Churn != nil {
		out.Churn = run.Churn
	}
	if run.ChurnMinutes != nil {
		out.ChurnMinutes = run.ChurnMinutes
	}
	if run.DrainChurn != nil {
		out.DrainChurn = run.DrainChurn
	}
	if run.Traffic != nil {
		out.Traffic = run.Traffic
	}
	if run.LookupsPerMinute != nil {
		out.LookupsPerMinute = run.LookupsPerMinute
	}
	if run.StoresPerMinute != nil {
		out.StoresPerMinute = run.StoresPerMinute
	}
	if run.KeyPool != nil {
		out.KeyPool = run.KeyPool
	}
	if run.SetupMinutes != nil {
		out.SetupMinutes = run.SetupMinutes
	}
	if run.StabilizeMinutes != nil {
		out.StabilizeMinutes = run.StabilizeMinutes
	}
	if run.SnapshotMinutes != nil {
		out.SnapshotMinutes = run.SnapshotMinutes
	}
	if run.SampleFraction != nil {
		out.SampleFraction = run.SampleFraction
	}
	if run.Attack != nil {
		out.Attack = run.Attack
	}
	if run.Sessions != nil {
		out.Sessions = run.Sessions
	}
	if run.Arrivals != nil {
		out.Arrivals = run.Arrivals
	}
	if run.Popularity != nil {
		out.Popularity = run.Popularity
	}
	if run.FlashCrowds != nil {
		out.FlashCrowds = run.FlashCrowds
	}
	if run.Trace != nil {
		out.Trace = run.Trace
	}
	return out
}

// Decode reads a spec from bytes with strict field checking and
// validates its shape. Traces referenced by path are NOT resolved —
// call ResolveTraces (Load does both).
func Decode(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("workload: spec: %w", err)
	}
	// A second document in the same file is a malformed spec, not data to
	// silently ignore.
	if dec.More() {
		return nil, fmt.Errorf("workload: spec: trailing data after the spec document")
	}
	if err := sp.Check(); err != nil {
		return nil, err
	}
	return &sp, nil
}

// Check validates the spec's own shape (per-run semantics against scale
// defaults are the resolver's job). Decode and Load both call it; callers
// that received the spec inside a larger decoded document call it
// themselves.
func (sp *Spec) Check() error {
	if sp.Version != SpecVersion {
		return fmt.Errorf("workload: spec version %d unsupported (want %d; a missing version field must be added explicitly)",
			sp.Version, SpecVersion)
	}
	if sp.ID == "" {
		return fmt.Errorf("workload: spec needs an id")
	}
	if len(sp.Runs) == 0 {
		return fmt.Errorf("workload: spec %q has no runs", sp.ID)
	}
	seen := make(map[string]bool, len(sp.Runs))
	for i := range sp.Runs {
		merged := Merge(sp.Defaults, sp.Runs[i])
		if merged.Name == "" {
			return fmt.Errorf("workload: spec %q run %d has no name", sp.ID, i)
		}
		if seen[merged.Name] {
			return fmt.Errorf("workload: spec %q has duplicate run name %q", sp.ID, merged.Name)
		}
		seen[merged.Name] = true
		if err := merged.check(); err != nil {
			return fmt.Errorf("workload: spec %q run %q: %w", sp.ID, merged.Name, err)
		}
	}
	return nil
}

// check validates the scale-independent constraints of one merged run.
// It checks the fields in declaration order, so a run with several bad
// fields is always reported by the same one.
func (r *RunSpec) check() error {
	for _, err := range []error{
		r.Size.check(),
		positive("k", r.K),
		positive("alpha", r.Alpha),
		positive("bits", r.Bits),
		positive("staleness", r.Staleness),
		nonNegative("churn_minutes", r.ChurnMinutes),
		// Explicit 0 means "off" for the traffic rates; only signs are wrong.
		nonNegative("lookups_per_minute", r.LookupsPerMinute),
		nonNegative("stores_per_minute", r.StoresPerMinute),
		positive("key_pool", r.KeyPool),
		positive("setup_minutes", r.SetupMinutes),
		positive("stabilize_minutes", r.StabilizeMinutes),
		positive("snapshot_minutes", r.SnapshotMinutes),
	} {
		if err != nil {
			return err
		}
	}
	if f := r.SampleFraction; f != nil && !(*f > 0 && *f <= 1) { // NaN included
		return fmt.Errorf("sample_fraction %g outside (0,1]", *f)
	}
	if r.ChurnMinutes != nil && r.DrainChurn != nil && *r.DrainChurn {
		return fmt.Errorf("churn_minutes and drain_churn are mutually exclusive")
	}
	if r.Attack != nil {
		if r.Attack.Strategy == "" {
			return fmt.Errorf("attack needs a strategy")
		}
		if r.Attack.Budget != nil && *r.Attack.Budget < 1 {
			return fmt.Errorf("attack budget %d must be >= 1", *r.Attack.Budget)
		}
		if r.Attack.Kills != nil && *r.Attack.Kills < 1 {
			return fmt.Errorf("attack kills %d must be >= 1", *r.Attack.Kills)
		}
		if r.Attack.IntervalMinutes < 0 {
			return fmt.Errorf("attack interval_minutes %g is negative", r.Attack.IntervalMinutes)
		}
	}
	if t := r.Trace; t != nil && (t.Path == "") == (len(t.Events) == 0) {
		return fmt.Errorf("trace needs a path or inline events, not both")
	}
	// Generator parameter shapes (run-length-dependent checks happen at
	// resolution, when the total duration is known).
	g := r.Generators()
	if g.Sessions != nil {
		if err := g.Sessions.validate(); err != nil {
			return err
		}
	}
	if g.Arrivals != nil {
		if err := g.Arrivals.validate(); err != nil {
			return err
		}
	}
	if g.Popularity != nil {
		if err := g.Popularity.validate(); err != nil {
			return err
		}
	}
	for i, fc := range g.FlashCrowds {
		if err := fc.validate(); err != nil {
			return fmt.Errorf("flash_crowds[%d]: %w", i, err)
		}
	}
	if g.Trace != nil {
		for i, ev := range g.Trace.Events {
			if err := ev.check(); err != nil {
				return fmt.Errorf("trace event %d: %w", i, err)
			}
		}
		// Inline events meet the label rules a trace file meets.
		if err := checkTraceLabels(g.Trace.Events); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	return nil
}

// positive rejects a negative value and an explicit 0, which the config
// layer would silently replace by a default.
func positive[T int | float64](name string, v *T) error {
	if v != nil && *v == 0 {
		return fmt.Errorf("%s 0 would take the default; omit the field instead", name)
	}
	return nonNegative(name, v)
}

// nonNegative rejects a negative value; 0 means what it says.
func nonNegative[T int | float64](name string, v *T) error {
	if v != nil && *v < 0 {
		return fmt.Errorf("%s %v is negative", name, *v)
	}
	return nil
}

func (ev TraceEvent) check() error {
	if ev.TMin < 0 {
		return fmt.Errorf("t_min %g is negative", ev.TMin)
	}
	if ev.Op != "join" && ev.Op != "leave" {
		return fmt.Errorf("unknown op %q (join, leave)", ev.Op)
	}
	return nil
}

// Generators collects the run's generative fields into a bundle.
func (r *RunSpec) Generators() Generators {
	return Generators{
		Sessions: r.Sessions, Arrivals: r.Arrivals, Popularity: r.Popularity,
		FlashCrowds: r.FlashCrowds, Trace: r.Trace,
	}
}

// Traces lists every trace block in the spec (defaults and runs), so
// callers that cannot resolve file paths — a server receiving the spec
// over the wire — can reject path-only traces up front.
func (sp *Spec) Traces() []*TraceSpec {
	var out []*TraceSpec
	if sp.Defaults != nil && sp.Defaults.Trace != nil {
		out = append(out, sp.Defaults.Trace)
	}
	for i := range sp.Runs {
		if sp.Runs[i].Trace != nil {
			out = append(out, sp.Runs[i].Trace)
		}
	}
	return out
}

// ResolveTraces loads every path-referenced trace, resolving relative
// paths against baseDir. Inline events pass through untouched; it is a
// no-op when no run replays a trace.
func (sp *Spec) ResolveTraces(baseDir string) error {
	resolve := func(t *TraceSpec) error {
		if t == nil || t.Path == "" || len(t.Events) > 0 {
			return nil
		}
		path := t.Path
		if !filepath.IsAbs(path) {
			path = filepath.Join(baseDir, path)
		}
		events, err := LoadTrace(path)
		if err != nil {
			return err
		}
		t.Events = events
		return nil
	}
	if sp.Defaults != nil {
		if err := resolve(sp.Defaults.Trace); err != nil {
			return err
		}
	}
	for i := range sp.Runs {
		if err := resolve(sp.Runs[i].Trace); err != nil {
			return err
		}
	}
	return nil
}

// Load reads, strictly decodes and validates a spec file, resolving
// trace paths relative to the file's directory.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("workload: spec %s: %w", path, err)
	}
	sp, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("workload: spec %s: %w", path, err)
	}
	if err := sp.ResolveTraces(filepath.Dir(path)); err != nil {
		return nil, fmt.Errorf("workload: spec %s: %w", path, err)
	}
	return sp, nil
}

// LoadTrace reads the JSONL trace file at path (see ReadTrace).
func LoadTrace(path string) ([]TraceEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: trace %s: %w", path, err)
	}
	defer f.Close()
	events, err := ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("workload: trace %s: %w", path, err)
	}
	return events, nil
}

// ReadTrace reads a JSONL trace: one strictly-decoded TraceEvent per
// non-empty line. Label lifecycles are validated in time order — a
// labeled leave must name a node that joined before it and is still
// live, and a labeled join must not reuse a live label — so a broken
// trace fails at load time, not halfway through a simulation.
func ReadTrace(r io.Reader) ([]TraceEvent, error) {
	var events []TraceEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		dec := json.NewDecoder(strings.NewReader(text))
		dec.DisallowUnknownFields()
		var ev TraceEvent
		if err := dec.Decode(&ev); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if err := ev.check(); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("no events")
	}
	if err := checkTraceLabels(events); err != nil {
		return nil, err
	}
	return events, nil
}

// checkTraceLabels replays label lifecycles in time order (ties resolve
// in file order, matching the replayer's scheduling).
func checkTraceLabels(events []TraceEvent) error {
	sorted := slices.Clone(events)
	slices.SortStableFunc(sorted, func(a, b TraceEvent) int { return cmp.Compare(a.TMin, b.TMin) })
	live := make(map[string]bool)
	for _, ev := range sorted {
		if ev.Node == "" {
			continue
		}
		switch ev.Op {
		case "join":
			if live[ev.Node] {
				return fmt.Errorf("node %q joins at %gm while already live", ev.Node, ev.TMin)
			}
			live[ev.Node] = true
		case "leave":
			if !live[ev.Node] {
				return fmt.Errorf("node %q leaves at %gm without a prior join", ev.Node, ev.TMin)
			}
			delete(live, ev.Node)
		}
	}
	return nil
}
