// Package churn generates the paper's network-churn scenarios: per minute
// of simulated time, a fixed number of randomly chosen nodes leave and a
// fixed number of fresh nodes join, each action at a uniformly random
// instant within its minute (§5.3). The scenarios evaluated are 0/1, 1/1,
// and 10/10 (add/remove per minute).
package churn

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"kadre/internal/eventsim"
)

// Rate is a churn scenario: nodes added and removed per minute.
type Rate struct {
	Add    int
	Remove int
}

// The paper's three churn scenarios.
var (
	Rate0_1   = Rate{Add: 0, Remove: 1}
	Rate1_1   = Rate{Add: 1, Remove: 1}
	Rate10_10 = Rate{Add: 10, Remove: 10}
)

// IsZero reports whether the rate produces no churn at all.
func (r Rate) IsZero() bool { return r.Add == 0 && r.Remove == 0 }

// String renders the paper's "add/remove" notation.
func (r Rate) String() string { return fmt.Sprintf("%d/%d", r.Add, r.Remove) }

// ParseRate reads the "add/remove" notation. Counts are plain unsigned
// decimal digits: Atoi's sign forms ("+1/1", "1/-0") are rejected, so a
// rate round-trips through String unchanged.
func ParseRate(s string) (Rate, error) {
	parts := strings.Split(s, "/")
	if len(parts) != 2 {
		return Rate{}, fmt.Errorf("churn: rate %q is not add/remove", s)
	}
	add, err1 := parseCount(parts[0])
	remove, err2 := parseCount(parts[1])
	if err1 != nil || err2 != nil {
		return Rate{}, fmt.Errorf("churn: rate %q has invalid counts", s)
	}
	return Rate{Add: add, Remove: remove}, nil
}

// parseCount accepts only unsigned digit strings.
func parseCount(s string) (int, error) {
	if s == "" {
		return 0, fmt.Errorf("churn: empty count")
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("churn: count %q is not an unsigned integer", s)
		}
	}
	return strconv.Atoi(s)
}

// Population is the churn generator's view of the network.
type Population interface {
	// RemoveRandomNode removes one uniformly chosen live node. It reports
	// false when no node is left to remove.
	RemoveRandomNode() bool
	// AddNode creates a fresh node and joins it through a random live
	// bootstrap node.
	AddNode() error
}

// Generator applies a churn rate to a population for a bounded phase.
type Generator struct {
	sim  *eventsim.Simulator
	rate Rate
	pop  Population

	added   int
	removed int
	err     error
}

// NewGenerator builds a churn generator. Nothing happens until Start.
func NewGenerator(sim *eventsim.Simulator, rate Rate, pop Population) *Generator {
	return &Generator{sim: sim, rate: rate, pop: pop}
}

// Added reports how many joins the generator has performed.
func (g *Generator) Added() int { return g.added }

// Removed reports how many removals the generator has performed.
func (g *Generator) Removed() int { return g.removed }

// Err returns the first error from a node addition, or nil. A failed
// addition never aborts the run.
func (g *Generator) Err() error { return g.err }

// Start schedules churn from virtual time `from` until `until`. Each
// minute in the window gets rate.Remove removals and rate.Add additions at
// independent uniformly random offsets within the minute.
func (g *Generator) Start(from, until time.Duration) error {
	if g.rate.IsZero() {
		return nil
	}
	if err := g.sim.Every(from, until, time.Minute, g.minute); err != nil {
		return fmt.Errorf("churn: %w", err)
	}
	return nil
}

// minute schedules one minute's worth of churn actions.
func (g *Generator) minute() bool {
	r := g.sim.Rand()
	for i := 0; i < g.rate.Remove; i++ {
		offset := time.Duration(r.Int63n(int64(time.Minute)))
		g.sim.MustSchedule(offset, func() {
			if g.pop.RemoveRandomNode() {
				g.removed++
			}
		})
	}
	for i := 0; i < g.rate.Add; i++ {
		offset := time.Duration(r.Int63n(int64(time.Minute)))
		g.sim.MustSchedule(offset, func() {
			if err := g.pop.AddNode(); err != nil {
				if g.err == nil {
					g.err = err
				}
				return
			}
			g.added++
		})
	}
	return true
}
