package eventsim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// ticks runs one Every series to the end and returns its tick instants.
func ticks(t *testing.T, from, until, period time.Duration) []time.Duration {
	t.Helper()
	s := New(1)
	var at []time.Duration
	if err := s.Every(from, until, period, func() bool {
		at = append(at, s.Now())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	return at
}

func TestEveryWindow(t *testing.T) {
	for _, c := range []struct {
		from, until, period time.Duration
		want                []time.Duration
	}{
		{2 * time.Second, 8 * time.Second, 2 * time.Second, []time.Duration{2 * time.Second, 4 * time.Second, 6 * time.Second}},
		{2 * time.Second, 9 * time.Second, 2 * time.Second, []time.Duration{2 * time.Second, 4 * time.Second, 6 * time.Second, 8 * time.Second}},
		{0, time.Second, time.Minute, []time.Duration{0}},
		{5 * time.Second, 5 * time.Second, time.Second, nil},
	} {
		if got := ticks(t, c.from, c.until, c.period); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Every(%v, %v, %v) ticked at %v, want %v", c.from, c.until, c.period, got, c.want)
		}
	}
}

func TestEveryFalseEndsSeries(t *testing.T) {
	s := New(1)
	n := 0
	if err := s.Every(0, time.Hour, time.Minute, func() bool {
		n++
		return n < 3
	}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if n != 3 {
		t.Fatalf("%d ticks, want 3: the third returned false", n)
	}
	if s.Now() != 2*time.Minute || s.Pending() != 0 {
		t.Fatalf("series left the clock at %v with %d pending, want 2m and 0", s.Now(), s.Pending())
	}
}

// TestEveryOrderAtSharedInstants pins Every's place in (time, schedule
// order): an event queued before the series at the first tick's instant
// fires first, and an event a tick queues at its successor's instant
// fires before the successor.
func TestEveryOrderAtSharedInstants(t *testing.T) {
	s := New(1)
	var log []string
	s.MustSchedule(time.Second, func() { log = append(log, "before@1s") })
	if err := s.Every(time.Second, 3*time.Second, time.Second, func() bool {
		log = append(log, fmt.Sprintf("tick@%v", s.Now()))
		s.MustSchedule(time.Second, func() { log = append(log, fmt.Sprintf("queued@%v", s.Now())) })
		return true
	}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	want := []string{"before@1s", "tick@1s", "queued@2s", "tick@2s", "queued@3s"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("order = %v, want %v", log, want)
	}
}

// TestEveryMatchesHandRolledTimer checks that a series makes the
// scheduling calls of the self-re-arming timer it replaces: first tick
// queued at set-up, the tick's events before its re-arm, the re-arm only
// inside the window. Both versions queue same-instant events in every
// tick and share instants with events queued from outside, so any change
// in sequence numbers reorders the logs.
func TestEveryMatchesHandRolledTimer(t *testing.T) {
	const from, until, period = 3 * time.Second, 20 * time.Second, 4 * time.Second
	run := func(start func(s *Simulator, tick func() bool)) []string {
		s := New(1)
		var log []string
		for at := time.Duration(0); at <= until; at += time.Second {
			at := at
			s.MustSchedule(at, func() { log = append(log, fmt.Sprintf("outside@%v", at)) })
		}
		n := 0
		start(s, func() bool {
			n++
			log = append(log, fmt.Sprintf("tick%d@%v", n, s.Now()))
			k := n
			for _, d := range []time.Duration{0, time.Second, period} {
				s.MustSchedule(d, func() { log = append(log, fmt.Sprintf("from%d@%v", k, s.Now())) })
			}
			return n < 4
		})
		s.Run()
		return log
	}
	every := run(func(s *Simulator, tick func() bool) {
		if err := s.Every(from, until, period, tick); err != nil {
			t.Fatal(err)
		}
	})
	handRolled := run(func(s *Simulator, tick func() bool) {
		var fire func()
		fire = func() {
			now := s.Now()
			if now >= until || !tick() {
				return
			}
			if now+period < until {
				s.MustSchedule(period, fire)
			}
		}
		s.MustSchedule(from, fire)
	})
	if !reflect.DeepEqual(every, handRolled) {
		t.Fatalf("Every diverged from the hand-rolled timer:\nevery: %v\nhand:  %v", every, handRolled)
	}
}

func TestEveryRejectsBadSeries(t *testing.T) {
	s := New(1)
	s.RunUntil(time.Minute)
	ok := func() bool { return true }
	for _, c := range []struct {
		name                string
		from, until, period time.Duration
	}{
		{"inverted window", 2 * time.Hour, time.Hour, time.Minute},
		{"start in the past", 0, time.Hour, time.Minute},
		{"zero period", time.Minute, time.Hour, 0},
		{"negative period", time.Minute, time.Hour, -time.Minute},
	} {
		if err := s.Every(c.from, c.until, c.period, ok); err == nil {
			t.Errorf("%s: Every accepted it", c.name)
		}
	}
	if err := s.Every(0, time.Hour, time.Minute, ok); !errors.Is(err, ErrPastTime) {
		t.Errorf("start in the past: error %v is not ErrPastTime", err)
	}
	if s.Pending() != 0 {
		t.Fatalf("rejected series queued %d events", s.Pending())
	}
}
