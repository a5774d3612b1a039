package simnet

import "fmt"

// LossLevel names one of the paper's Table 1 message-loss scenarios.
type LossLevel int

// The four Table 1 scenarios. One-way probabilities are chosen so that
// two-way (request/response) communication fails with 0%, 5%, 25%, and 50%
// probability respectively.
const (
	LossNone LossLevel = iota + 1
	LossLow
	LossMedium
	LossHigh
)

// oneWayLoss maps each level to the paper's one-way loss probability.
var oneWayLoss = map[LossLevel]float64{
	LossNone:   0.0,
	LossLow:    0.025,
	LossMedium: 0.134,
	LossHigh:   0.293,
}

// String implements fmt.Stringer.
func (l LossLevel) String() string {
	switch l {
	case LossNone:
		return "none"
	case LossLow:
		return "low"
	case LossMedium:
		return "medium"
	case LossHigh:
		return "high"
	default:
		return fmt.Sprintf("LossLevel(%d)", int(l))
	}
}

// ParseLossLevel converts a scenario name to a LossLevel.
func ParseLossLevel(s string) (LossLevel, error) {
	switch s {
	case "none":
		return LossNone, nil
	case "low":
		return LossLow, nil
	case "medium", "med":
		return LossMedium, nil
	case "high":
		return LossHigh, nil
	default:
		return 0, fmt.Errorf("simnet: unknown loss level %q", s)
	}
}

// OneWayLoss returns the scenario's one-way loss probability (Table 1,
// column Ploss(1-way)), 0 for a level outside the table.
func (l LossLevel) OneWayLoss() float64 { return oneWayLoss[l] }

// TwoWayLoss returns the scenario's request/response failure probability
// (Table 1, column Ploss(2-way)).
func (l LossLevel) TwoWayLoss() float64 {
	return TwoWayFailure(l.OneWayLoss())
}

// TwoWayFailure returns the probability that a request/response exchange
// fails under one-way loss probability p: 1 - (1-p)^2.
func TwoWayFailure(p float64) float64 { return 1 - (1-p)*(1-p) }

// Levels returns all four scenarios in Table 1 order.
func Levels() []LossLevel {
	return []LossLevel{LossNone, LossLow, LossMedium, LossHigh}
}
