package workload

import (
	"fmt"
	"strconv"
	"strings"
)

// ChurnRate is the paper's network churn (§5.3): per minute of the churn
// phase, Add fresh nodes join and Remove randomly chosen nodes leave, each
// action at a uniformly random instant within its minute. The scenarios
// evaluated are 0/1, 1/1 and 10/10 (add/remove per minute).
type ChurnRate struct {
	Add    int
	Remove int
}

// The paper's three churn scenarios.
var (
	Churn0_1   = ChurnRate{Add: 0, Remove: 1}
	Churn1_1   = ChurnRate{Add: 1, Remove: 1}
	Churn10_10 = ChurnRate{Add: 10, Remove: 10}
)

// IsZero reports whether the rate produces no churn at all.
func (r ChurnRate) IsZero() bool { return r.Add == 0 && r.Remove == 0 }

// String renders the paper's "add/remove" notation.
func (r ChurnRate) String() string { return fmt.Sprintf("%d/%d", r.Add, r.Remove) }

// ParseChurnRate reads the "add/remove" notation. Counts are plain
// unsigned decimal digits: Atoi's sign forms ("+1/1", "1/-0") are
// rejected, so a rate round-trips through String unchanged.
func ParseChurnRate(s string) (ChurnRate, error) {
	parts := strings.Split(s, "/")
	if len(parts) != 2 {
		return ChurnRate{}, fmt.Errorf("workload: churn rate %q is not add/remove", s)
	}
	add, err1 := parseCount(parts[0])
	remove, err2 := parseCount(parts[1])
	if err1 != nil || err2 != nil {
		return ChurnRate{}, fmt.Errorf("workload: churn rate %q has invalid counts", s)
	}
	return ChurnRate{Add: add, Remove: remove}, nil
}

// parseCount accepts only unsigned digit strings.
func parseCount(s string) (int, error) {
	if s == "" {
		return 0, fmt.Errorf("workload: empty count")
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("workload: count %q is not an unsigned integer", s)
		}
	}
	return strconv.Atoi(s)
}

// Default per-node per-minute traffic rates from §5.3.
const (
	DefaultLookupsPerMinute = 10
	DefaultStoresPerMinute  = 1
	// DefaultKeyPoolSize bounds the shared universe of data-object keys.
	DefaultKeyPoolSize = 256
)

// Disabled turns one traffic rate off explicitly. A zero field means
// "unset — take the paper default", so 0 alone cannot express a
// lookups-off or stores-off workload; set the field to Disabled instead.
const Disabled = -1

// Traffic parameterizes the paper's data traffic (§5.3): every live node
// performs LookupsPerMinute lookups and StoresPerMinute disseminations
// per minute, each at a uniformly random instant within the minute, on
// keys drawn from a shared pool of KeyPoolSize data-object keys. Zero
// fields take the defaults above; Disabled turns a rate off.
type Traffic struct {
	LookupsPerMinute int
	StoresPerMinute  int
	KeyPoolSize      int
}

// WithDefaults fills the zero fields with the paper defaults. Disabled
// stays as it is, so the result is a fixed point; an engine runs no
// operation of a Disabled rate.
func (w Traffic) WithDefaults() Traffic {
	if w.LookupsPerMinute == 0 {
		w.LookupsPerMinute = DefaultLookupsPerMinute
	}
	if w.StoresPerMinute == 0 {
		w.StoresPerMinute = DefaultStoresPerMinute
	}
	if w.KeyPoolSize == 0 {
		w.KeyPoolSize = DefaultKeyPoolSize
	}
	return w
}

// Validate rejects rates that are neither a count, zero-meaning-default,
// nor the Disabled sentinel. The key pool cannot be disabled — traffic
// without keys is meaningless (turn both rates off instead).
func (w Traffic) Validate() error {
	if w.LookupsPerMinute < Disabled {
		return fmt.Errorf("workload: lookups/minute %d is negative (use Disabled to turn lookups off)", w.LookupsPerMinute)
	}
	if w.StoresPerMinute < Disabled {
		return fmt.Errorf("workload: stores/minute %d is negative (use Disabled to turn stores off)", w.StoresPerMinute)
	}
	if w.KeyPoolSize < 0 {
		return fmt.Errorf("workload: key pool size %d is negative", w.KeyPoolSize)
	}
	return nil
}
