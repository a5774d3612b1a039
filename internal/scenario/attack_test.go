package scenario

import (
	"reflect"
	"testing"
	"time"

	"kadre/internal/attack"
)

// miniAttack is a deliberately small attacked run so the determinism
// matrix (4 strategies x jobs x race detector) stays fast enough to run
// un-gated in the -short CI pass.
func miniAttack(strategy attack.Strategy, seed int64) Config {
	return Config{
		Name:             "mini/" + string(strategy),
		Seed:             seed,
		Size:             24,
		K:                8,
		Staleness:        1,
		Setup:            6 * time.Minute,
		Stabilize:        10 * time.Minute,
		ChurnPhase:       16 * time.Minute,
		SnapshotInterval: 4 * time.Minute,
		SampleFraction:   0.1,
		Workers:          4, // exercise the analyzer pool inside each run
		Attack: attack.Config{
			Strategy: strategy,
			Budget:   12,
			Kills:    3,
			Interval: 4 * time.Minute,
		},
	}
}

// TestAttackRunDeterministicPerStrategy pins the seed contract for every
// strategy: the same seed must reproduce the identical victim sequence
// and the identical degradation curve, strike for strike and point for
// point.
func TestAttackRunDeterministicPerStrategy(t *testing.T) {
	for _, st := range attack.Strategies() {
		a, err := Run(miniAttack(st, 5))
		if err != nil {
			t.Fatalf("%s: %v", st, err)
		}
		b, err := Run(miniAttack(st, 5))
		if err != nil {
			t.Fatalf("%s: %v", st, err)
		}
		if a.AttackRemoved == 0 {
			t.Fatalf("%s: adversary removed nothing", st)
		}
		if !reflect.DeepEqual(a.Victims, b.Victims) {
			t.Fatalf("%s: same seed produced different victim sequences:\n%v\nvs\n%v", st, a.Victims, b.Victims)
		}
		if !reflect.DeepEqual(a.Points, b.Points) {
			t.Fatalf("%s: same seed produced different degradation curves:\n%v\nvs\n%v", st, a.Points, b.Points)
		}
	}
}

// TestAttackJobsDeterminism runs the full strategy set at jobs=1 and
// jobs=8: the per-run results (victims and curves) must be bitwise
// identical regardless of how runs are scheduled over workers. Together
// with the race detector this pins the no-shared-state contract of the
// attack engine and the MinPair-dependent cutset strategy.
func TestAttackJobsDeterminism(t *testing.T) {
	var cfgs []Config
	for _, st := range attack.Strategies() {
		cfgs = append(cfgs, miniAttack(st, 9))
	}
	seq, par := runJobs(t, cfgs, 1), runJobs(t, cfgs, 8)
	for i := range cfgs {
		if !reflect.DeepEqual(seq[i].Victims, par[i].Victims) {
			t.Fatalf("%s: jobs=1 and jobs=8 victim sequences differ", cfgs[i].Name)
		}
		if !reflect.DeepEqual(seq[i].Points, par[i].Points) {
			t.Fatalf("%s: jobs=1 and jobs=8 degradation curves differ", cfgs[i].Name)
		}
		if seq[i].AttackRemoved != par[i].AttackRemoved {
			t.Fatalf("%s: removed %d vs %d", cfgs[i].Name, seq[i].AttackRemoved, par[i].AttackRemoved)
		}
	}
}

// TestAttackMeasurements checks the degradation bookkeeping: the Removed
// counter is monotone, reaches the budget, matches the victim log, and
// the final network is smaller by exactly the removals the adversary and
// nobody else made (no churn is configured).
func TestAttackMeasurements(t *testing.T) {
	cfg := miniAttack(attack.Degree, 11)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AttackRemoved != cfg.Attack.Budget {
		t.Fatalf("removed %d, want full budget %d", res.AttackRemoved, cfg.Attack.Budget)
	}
	if len(res.Victims) != res.AttackRemoved {
		t.Fatalf("victim log %d entries, removed %d", len(res.Victims), res.AttackRemoved)
	}
	last := 0
	for _, p := range res.Points {
		if p.Removed < last {
			t.Fatalf("Removed not monotone: %d after %d", p.Removed, last)
		}
		last = p.Removed
		if p.SCC < 0 || p.SCC > 1 {
			t.Fatalf("SCC fraction %v out of range", p.SCC)
		}
	}
	final := res.Points[len(res.Points)-1]
	if final.Removed != cfg.Attack.Budget {
		t.Fatalf("final snapshot saw %d removals, want %d", final.Removed, cfg.Attack.Budget)
	}
	if final.N != cfg.Size-cfg.Attack.Budget {
		t.Fatalf("final size %d, want %d", final.N, cfg.Size-cfg.Attack.Budget)
	}
	// Pre-attack snapshots must see zero removals.
	for _, p := range res.Points {
		if p.Time <= cfg.ChurnStart() && p.Removed != 0 {
			t.Fatalf("removal before the attack window: %+v", p)
		}
	}
}

// TestStrikesInAndKills pins the window arithmetic of the one adversary
// rule every declared attack resolves through.
func TestStrikesInAndKills(t *testing.T) {
	if got := strikesIn(40*time.Minute, 5*time.Minute); got != 8 {
		t.Fatalf("strikesIn(40m, 5m) = %d, want 8 (strikes at 2.5, 7.5, ..., 37.5)", got)
	}
	if got := strikesIn(40*time.Minute, 15*time.Minute); got != 3 {
		t.Fatalf("strikesIn(40m, 15m) = %d, want 3 (strikes at 7.5, 22.5, 37.5)", got)
	}
	if got := strikesIn(4*time.Minute, 10*time.Minute); got != 0 {
		t.Fatalf("strikesIn(4m, 10m) = %d, want 0 (first strike misses the window)", got)
	}
	coarse := TinyScale.adversary(attack.Config{Strategy: attack.Random, Budget: 20, Interval: 15 * time.Minute}, 40, 40*time.Minute)
	if coarse.Kills != 7 {
		t.Fatalf("budget 20 over 40m at 15m: kills = %d, want ceil(20/3) = 7", coarse.Kills)
	}
	if pinned := TinyScale.adversary(attack.Config{Strategy: attack.Random, Kills: 2}, 40, 40*time.Minute); pinned.Kills != 2 {
		t.Fatalf("explicit kills 2 re-spread to %d", pinned.Kills)
	}
	// The default adversary must be self-consistent: kills x strikes covers
	// the budget with the final strike possibly partial.
	for _, s := range []Scale{TinyScale, ReducedScale, PaperScale} {
		cfg := s.adversary(attack.Config{Strategy: attack.Random}, s.Small, s.ChurnLong)
		if cfg.Budget != s.Small/2 || cfg.Interval != max(s.ChurnLong/8, time.Minute) {
			t.Fatalf("scale %s: default adversary %v, want budget %d every %v", s.Name, cfg, s.Small/2, s.ChurnLong/8)
		}
		strikes := strikesIn(s.ChurnLong, cfg.Interval)
		if cfg.Kills*strikes < cfg.Budget {
			t.Fatalf("scale %s: %d strikes x %d kills cannot exhaust budget %d",
				s.Name, strikes, cfg.Kills, cfg.Budget)
		}
	}
}

// TestAttackValidation covers the config plumbing errors.
func TestAttackValidation(t *testing.T) {
	cfg := miniAttack(attack.Random, 1)
	cfg.ChurnPhase = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("attack with zero churn phase must fail validation")
	}
	cfg = miniAttack("martians", 1)
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown strategy must fail validation")
	}
}

// TestSnapshotPrecedesStrikeAtSharedInstant pins Config.Attack's order
// rule on a run whose strikes (every 20 m from 50 m) land on snapshot
// instants (every 10 m): each point's Removed counts only the strikes
// strictly before it, so the snapshots at 50, 70 and 90 m miss the strike
// of their own instant.
func TestSnapshotPrecedesStrikeAtSharedInstant(t *testing.T) {
	res, err := Run(Config{
		Name:             "shared-instant",
		Seed:             3,
		Size:             30,
		Setup:            10 * time.Minute,
		Stabilize:        30 * time.Minute,
		ChurnPhase:       60 * time.Minute,
		SnapshotInterval: 10 * time.Minute,
		Attack:           attack.Config{Strategy: attack.Random, Interval: 20 * time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	var strikes []time.Duration
	for _, v := range res.Victims {
		strikes = append(strikes, v.Time)
	}
	if want := []time.Duration{50 * time.Minute, 70 * time.Minute, 90 * time.Minute}; !reflect.DeepEqual(strikes, want) {
		t.Fatalf("victims removed at %v, want one at each of %v", strikes, want)
	}
	shared := 0
	for _, p := range res.Points {
		before := 0
		for _, at := range strikes {
			if at < p.Time {
				before++
			} else if at == p.Time {
				shared++
			}
		}
		if p.Removed != before {
			t.Errorf("snapshot at %v counts %d removed, want %d (strikes strictly before it)", p.Time, p.Removed, before)
		}
	}
	if shared != 3 {
		t.Fatalf("%d strikes share an instant with a snapshot, want 3", shared)
	}
}
