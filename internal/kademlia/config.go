// Package kademlia implements the Kademlia protocol of Maymounkov and
// Mazieres on the simulated network: b-bit XOR identifiers, k-buckets with
// least-recently-seen eviction guarded by a staleness limit s, iterative
// alpha-parallel node and value lookups, dissemination (STORE), periodic
// bucket refresh, and silent departure. These are exactly the mechanisms
// whose parameters (b, k, alpha, s) the paper sweeps in its connectivity
// evaluation. What the paper fixes is fixed here too: buckets refresh every
// RefreshInterval, a request times out after RPCTimeout, and each bucket
// keeps up to k replacement contacts.
package kademlia

import (
	"fmt"
	"time"

	"kadre/internal/id"
)

// Default protocol parameters, as set by the Kademlia authors and quoted
// in §4.1 of the paper.
const (
	DefaultK              = 20
	DefaultAlpha          = 3
	DefaultStalenessLimit = 5
	DefaultBits           = id.DefaultBits
)

// Fixed protocol constants: the paper varies neither.
const (
	// RefreshInterval is the bucket-refresh period; the paper's
	// no-traffic scenarios rely on this 60-minute maintenance cycle.
	RefreshInterval = 60 * time.Minute
	// RPCTimeout is how long a node waits for a response before counting
	// a communication failure against the contact's staleness budget. The
	// paper does not specify PeerSim's value; 2 s is far above the
	// simulated latency ceiling, so only loss and death cause timeouts.
	RPCTimeout = 2 * time.Second
)

// Config carries the protocol parameters of one Kademlia deployment. The
// zero value of any field means "use the default".
type Config struct {
	// Bits is the identifier bit-length b (paper: 160 and 80).
	Bits int
	// K is the bucket size k, the maximum contacts per bucket and the
	// result-set size of lookups (paper: 5, 10, 20, 30). It also bounds
	// each bucket's replacement cache.
	K int
	// Alpha is the request parallelism of lookups (paper: 3 and 5).
	Alpha int
	// StalenessLimit is s: a contact is evicted after this many
	// consecutive failed communication attempts (paper: 1 and 5).
	StalenessLimit int
}

// WithDefaults returns the config with zero fields replaced by defaults.
func (c Config) WithDefaults() Config {
	if c.Bits == 0 {
		c.Bits = DefaultBits
	}
	if c.K == 0 {
		c.K = DefaultK
	}
	if c.Alpha == 0 {
		c.Alpha = DefaultAlpha
	}
	if c.StalenessLimit == 0 {
		c.StalenessLimit = DefaultStalenessLimit
	}
	return c
}

// Validate checks a fully-defaulted config for consistency.
func (c Config) Validate() error {
	if err := id.CheckBits(c.Bits); err != nil {
		return err
	}
	if c.K < 1 {
		return fmt.Errorf("kademlia: bucket size k = %d must be >= 1", c.K)
	}
	if c.Alpha < 1 {
		return fmt.Errorf("kademlia: parallelism alpha = %d must be >= 1", c.Alpha)
	}
	if c.StalenessLimit < 1 {
		return fmt.Errorf("kademlia: staleness limit s = %d must be >= 1", c.StalenessLimit)
	}
	return nil
}
