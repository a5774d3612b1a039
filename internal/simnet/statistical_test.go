package simnet

import (
	"math"
	"math/rand"
	"testing"

	"kadre/internal/eventsim"
)

// echo answers every request delivered to it and counts the responses
// that come back to the requester, the way a node's RPC counts replies.
type echo struct {
	net     *Network
	replies int
}

func (e *echo) Deliver(from Addr, payload any) {
	if from == 1 {
		e.net.Send(2, 1, payload) // the response
		return
	}
	e.replies++
}

// Statistical validation of every Table 1 level against its published
// two-way failure probability, the same check BenchmarkTable1MessageLoss
// reports as metrics: request/response exchanges between two hosts of a
// network built the way the scenario runner builds it, with the level's
// one-way loss, one exchange at a time.
func TestTwoWayFailureRatesAllLevels(t *testing.T) {
	const trials = 200000
	for _, level := range Levels() {
		t.Run(level.String(), func(t *testing.T) {
			sim := eventsim.New(int64(level))
			net := New(sim, Config{Loss: level.OneWayLoss()})
			e := &echo{net: net}
			for _, addr := range []Addr{1, 2} {
				if err := net.Attach(addr, e); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < trials; i++ {
				net.Send(1, 2, nil)
				sim.Run()
			}
			got := float64(trials-e.replies) / trials
			want := level.TwoWayLoss()
			if math.Abs(got-want) > 0.005 {
				t.Fatalf("measured two-way failure %.4f, want %.4f", got, want)
			}
			if st := net.Stats(); st.Lost != st.Sent-st.Delivered {
				t.Fatalf("stats do not add up: %+v", st)
			}
		})
	}
}

func TestUniformLatencyMeanCentered(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	m := UniformLatency{Min: 10_000_000, Max: 100_000_000} // 10-100ms in ns
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		sum += float64(m.Delay(r))
	}
	mean := sum / n
	want := float64(m.Min+m.Max) / 2
	if math.Abs(mean-want)/want > 0.02 {
		t.Fatalf("mean latency %.0f, want ~%.0f", mean, want)
	}
}
