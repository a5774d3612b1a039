package scenario_test

import (
	"fmt"
	"time"

	"kadre/internal/scenario"
)

// ExampleRun runs a miniature version of the paper's simulation loop and
// prints the final network state.
func ExampleRun() {
	res, err := scenario.Run(scenario.Config{
		Name: "example", Seed: 1, Size: 25, K: 4,
		Setup: 10 * time.Minute, Stabilize: 10 * time.Minute,
		SnapshotInterval: 20 * time.Minute, SampleFraction: 0.2,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	last := res.Points[len(res.Points)-1]
	fmt.Println("nodes:", last.N)
	fmt.Println("min connectivity positive:", last.Min > 0)
	// Output:
	// nodes: 25
	// min connectivity positive: true
}
