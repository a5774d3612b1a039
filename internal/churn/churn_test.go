package churn

import (
	"errors"
	"testing"
	"time"

	"kadre/internal/eventsim"
)

type fakePop struct {
	live    int
	added   int
	removed int
	addErr  error
}

func (f *fakePop) RemoveRandomNode() bool {
	if f.live == 0 {
		return false
	}
	f.live--
	f.removed++
	return true
}

func (f *fakePop) AddNode() error {
	if f.addErr != nil {
		return f.addErr
	}
	f.live++
	f.added++
	return nil
}

func TestParseRate(t *testing.T) {
	tests := []struct {
		in      string
		want    Rate
		wantErr bool
	}{
		{"0/1", Rate0_1, false},
		{"1/1", Rate1_1, false},
		{"10/10", Rate10_10, false},
		{"3/7", Rate{Add: 3, Remove: 7}, false},
		{"1", Rate{}, true},
		{"a/b", Rate{}, true},
		{"-1/1", Rate{}, true},
		{"1/2/3", Rate{}, true},
		// Signed and otherwise decorated counts: strconv.Atoi accepts
		// "+1" and "-0", but a churn rate is a plain non-negative count —
		// only unsigned digits parse.
		{"+1/1", Rate{}, true},
		{"1/+1", Rate{}, true},
		{"1/-0", Rate{}, true},
		{"-0/1", Rate{}, true},
		{" 1/1", Rate{}, true},
		{"1/1 ", Rate{}, true},
		{"1/ 1", Rate{}, true},
		{"", Rate{}, true},
		{"/", Rate{}, true},
		{"1/", Rate{}, true},
		{"/1", Rate{}, true},
		{"0x1/1", Rate{}, true},
		{"1_0/1", Rate{}, true},
	}
	for _, tt := range tests {
		got, err := ParseRate(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseRate(%q) error = %v", tt.in, err)
			continue
		}
		if !tt.wantErr && got != tt.want {
			t.Errorf("ParseRate(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestRateString(t *testing.T) {
	if Rate10_10.String() != "10/10" || Rate1_1.String() != "1/1" || Rate0_1.String() != "0/1" {
		t.Fatal("String format wrong")
	}
	if !(Rate{}).IsZero() || Rate1_1.IsZero() {
		t.Fatal("IsZero wrong")
	}
}

func TestGeneratorAppliesRate(t *testing.T) {
	sim := eventsim.New(3)
	pop := &fakePop{live: 100}
	g := NewGenerator(sim, Rate{Add: 2, Remove: 3}, pop)
	// 10 minutes of churn.
	if err := g.Start(0, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(20 * time.Minute)
	if g.Added() != 20 || pop.added != 20 {
		t.Errorf("added %d, want 20", g.Added())
	}
	if g.Removed() != 30 || pop.removed != 30 {
		t.Errorf("removed %d, want 30", g.Removed())
	}
}

func TestGeneratorActionsSpreadWithinMinute(t *testing.T) {
	sim := eventsim.New(5)
	pop := &fakePop{live: 1000}
	g := NewGenerator(sim, Rate{Add: 10, Remove: 10}, pop)
	if err := g.Start(0, time.Minute); err != nil {
		t.Fatal(err)
	}
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

func TestGeneratorWindowEnd(t *testing.T) {
	sim := eventsim.New(7)
	pop := &fakePop{live: 50}
	g := NewGenerator(sim, Rate{Add: 0, Remove: 1}, pop)
	if err := g.Start(5*time.Minute, 8*time.Minute); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(30 * time.Minute)
	// Minutes 5, 6, 7 -> 3 removals; the window closes at 8.
	if g.Removed() != 3 {
		t.Fatalf("removed %d, want 3", g.Removed())
	}
}

func TestGeneratorZeroRateNoop(t *testing.T) {
	sim := eventsim.New(11)
	pop := &fakePop{live: 5}
	g := NewGenerator(sim, Rate{}, pop)
	if err := g.Start(0, time.Hour); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(time.Hour)
	if pop.added+pop.removed != 0 {
		t.Fatal("zero rate caused churn")
	}
}

func TestGeneratorInvalidWindows(t *testing.T) {
	sim := eventsim.New(13)
	g := NewGenerator(sim, Rate1_1, &fakePop{})
	if err := g.Start(time.Hour, time.Minute); err == nil {
		t.Error("inverted window should fail")
	}
	sim.RunUntil(time.Minute)
	if err := g.Start(0, time.Hour); err == nil {
		t.Error("window starting in the past should fail")
	}
}

func TestGeneratorCollectsAddErrors(t *testing.T) {
	sim := eventsim.New(15)
	pop := &fakePop{live: 10, addErr: errors.New("boom")}
	g := NewGenerator(sim, Rate{Add: 1}, pop)
	if err := g.Start(0, 3*time.Minute); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(10 * time.Minute)
	if g.Added() != 0 {
		t.Fatal("failed adds counted as added")
	}
	if err := g.Err(); err == nil || err.Error() != "boom" {
		t.Fatalf("Err() = %v, want the first add error", err)
	}
}

func TestRemoveFromEmptyPopulation(t *testing.T) {
	sim := eventsim.New(17)
	pop := &fakePop{live: 1}
	g := NewGenerator(sim, Rate{Remove: 5}, pop)
	if err := g.Start(0, time.Minute); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(5 * time.Minute)
	if g.Removed() != 1 {
		t.Fatalf("removed %d from population of 1, want 1", g.Removed())
	}
}
