package scenario

import (
	"math"
	"reflect"
	"testing"

	"kadre/internal/attack"
)

// TestMinOnlyMatchesFusedRun licenses Config.MinOnly: skipping the Avg
// sweep changes no measured value but Avg. For tiny runs with churn, with
// traffic and under every attack strategy, at Workers 1 and 4, a MinOnly
// run's Result equals the fused run's field for field — Min, N, Edges,
// SCC, Symmetry and Removed at every point, the victims, the network
// stats and every counter — except that each analyzed point's Avg is NaN.
func TestMinOnlyMatchesFusedRun(t *testing.T) {
	churned := miniAttack(attack.Random, 3)
	churned.Name, churned.Attack = "mini/churn", attack.Config{}
	churned.Churn.Add, churned.Churn.Remove = 1, 1
	traffic := churned
	traffic.Name, traffic.Traffic = "mini/traffic", true
	cfgs := []Config{churned, traffic}
	for _, st := range attack.Strategies() {
		cfgs = append(cfgs, miniAttack(st, 3))
	}
	for _, cfg := range cfgs {
		for _, workers := range []int{1, 4} {
			cfg.Workers = workers
			fused, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.MinOnly = true
			got, err := Run(cfg)
			cfg.MinOnly = false
			if err != nil {
				t.Fatal(err)
			}
			analyzed := 0
			for i := range got.Points {
				p := &got.Points[i]
				if p.N > 1 {
					if !math.IsNaN(p.Avg) {
						t.Fatalf("%s workers %d point %d: MinOnly Avg %v, want NaN", cfg.Name, workers, i, p.Avg)
					}
					p.Avg = fused.Points[i].Avg
					analyzed++
				}
			}
			if analyzed == 0 {
				t.Fatalf("%s: no analyzed point", cfg.Name)
			}
			if cfg.Attack.Enabled() && got.AttackRemoved == 0 {
				t.Fatalf("%s: adversary removed nothing", cfg.Name)
			}
			got.Config, got.Elapsed = fused.Config, fused.Elapsed
			if !reflect.DeepEqual(got, fused) {
				t.Fatalf("%s workers %d: MinOnly run differs beyond Avg:\n%+v\nfused:\n%+v", cfg.Name, workers, got, fused)
			}
		}
	}
}
