package workload

import (
	"errors"
	"testing"
	"time"

	"kadre/internal/eventsim"
)

// churnEngine starts an engine that runs rate alone over [from, until).
func churnEngine(t *testing.T, sim *eventsim.Simulator, rate ChurnRate, pop *fakePop, from, until time.Duration) *Engine {
	t.Helper()
	e := mustEngine(t, sim, Plan{Churn: rate}, pop)
	if err := e.Start(from, until); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestParseChurnRate(t *testing.T) {
	tests := []struct {
		in      string
		want    ChurnRate
		wantErr bool
	}{
		{"0/1", Churn0_1, false},
		{"1/1", Churn1_1, false},
		{"10/10", Churn10_10, false},
		{"3/7", ChurnRate{Add: 3, Remove: 7}, false},
		{"1", ChurnRate{}, true},
		{"a/b", ChurnRate{}, true},
		{"-1/1", ChurnRate{}, true},
		{"1/2/3", ChurnRate{}, true},
		// Signed and otherwise decorated counts: strconv.Atoi accepts
		// "+1" and "-0", but a churn rate is a plain non-negative count —
		// only unsigned digits parse.
		{"+1/1", ChurnRate{}, true},
		{"1/+1", ChurnRate{}, true},
		{"1/-0", ChurnRate{}, true},
		{"-0/1", ChurnRate{}, true},
		{" 1/1", ChurnRate{}, true},
		{"1/1 ", ChurnRate{}, true},
		{"1/ 1", ChurnRate{}, true},
		{"", ChurnRate{}, true},
		{"/", ChurnRate{}, true},
		{"1/", ChurnRate{}, true},
		{"/1", ChurnRate{}, true},
		{"0x1/1", ChurnRate{}, true},
		{"1_0/1", ChurnRate{}, true},
	}
	for _, tt := range tests {
		got, err := ParseChurnRate(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseChurnRate(%q) error = %v", tt.in, err)
			continue
		}
		if !tt.wantErr && got != tt.want {
			t.Errorf("ParseChurnRate(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestChurnRateString(t *testing.T) {
	if Churn10_10.String() != "10/10" || Churn1_1.String() != "1/1" || Churn0_1.String() != "0/1" {
		t.Fatal("String format wrong")
	}
	if !(ChurnRate{}).IsZero() || Churn1_1.IsZero() {
		t.Fatal("IsZero wrong")
	}
}

func TestChurnAppliesRate(t *testing.T) {
	sim := eventsim.New(3)
	pop := newFakePop(sim, 100)
	// 10 minutes of churn.
	e := churnEngine(t, sim, ChurnRate{Add: 2, Remove: 3}, pop, 0, 10*time.Minute)
	sim.RunUntil(20 * time.Minute)
	if c := e.Counts(); c.ChurnAdded != 20 || c.ChurnRemoved != 30 {
		t.Errorf("added/removed %d/%d, want 20/30", c.ChurnAdded, c.ChurnRemoved)
	}
	if len(pop.live) != 90 {
		t.Errorf("%d live members, want 100+20-30", len(pop.live))
	}
}

func TestChurnActionsSpreadWithinMinute(t *testing.T) {
	sim := eventsim.New(5)
	churnEngine(t, sim, ChurnRate{Add: 10, Remove: 10}, newFakePop(sim, 1000), 0, time.Minute)
	// Step through events and check they do not all fire at the same
	// instant (the paper randomizes action times inside each minute).
	times := map[time.Duration]bool{}
	for sim.Step() {
		times[sim.Now()] = true
	}
	if len(times) < 10 {
		t.Fatalf("churn actions clustered on %d distinct instants", len(times))
	}
}

func TestChurnWindowEnd(t *testing.T) {
	sim := eventsim.New(7)
	e := churnEngine(t, sim, Churn0_1, newFakePop(sim, 50), 5*time.Minute, 8*time.Minute)
	sim.RunUntil(30 * time.Minute)
	// Minutes 5, 6, 7 -> 3 removals; the window closes at 8.
	if got := e.Counts().ChurnRemoved; got != 3 {
		t.Fatalf("removed %d, want 3", got)
	}
}

func TestChurnZeroRateNoop(t *testing.T) {
	sim := eventsim.New(11)
	pop := newFakePop(sim, 5)
	churnEngine(t, sim, ChurnRate{}, pop, 0, time.Hour)
	sim.RunUntil(time.Hour)
	if len(pop.log) != 0 || sim.Processed() != 0 {
		t.Fatalf("zero rate caused churn: %v, %d events", pop.log, sim.Processed())
	}
}

func TestChurnInvalidWindows(t *testing.T) {
	sim := eventsim.New(13)
	e := mustEngine(t, sim, Plan{Churn: Churn1_1}, newFakePop(sim, 0))
	if err := e.Start(time.Hour, time.Minute); err == nil {
		t.Error("inverted window should fail")
	}
	sim.RunUntil(time.Minute)
	if err := e.Start(0, time.Hour); err == nil {
		t.Error("window starting in the past should fail")
	}
}

func TestChurnCollectsAddErrors(t *testing.T) {
	sim := eventsim.New(15)
	pop := newFakePop(sim, 10)
	pop.joinErr = errors.New("boom")
	e := churnEngine(t, sim, ChurnRate{Add: 1}, pop, 0, 3*time.Minute)
	sim.RunUntil(10 * time.Minute)
	if got := e.Counts().ChurnAdded; got != 0 {
		t.Fatalf("%d failed adds counted as added", got)
	}
	if err := e.Err(); err == nil || err.Error() != "boom" {
		t.Fatalf("Err() = %v, want the first add error", err)
	}
}

func TestChurnRemoveFromEmptyPopulation(t *testing.T) {
	sim := eventsim.New(17)
	e := churnEngine(t, sim, ChurnRate{Remove: 5}, newFakePop(sim, 1), 0, time.Minute)
	sim.RunUntil(5 * time.Minute)
	if got := e.Counts().ChurnRemoved; got != 1 {
		t.Fatalf("removed %d from population of 1, want 1", got)
	}
}
