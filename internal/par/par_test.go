package par

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestJobs(t *testing.T) {
	if got := Jobs(4, 10); got != 4 {
		t.Fatalf("Jobs(4, 10) = %d", got)
	}
	if got := Jobs(8, 3); got != 3 {
		t.Fatalf("Jobs(8, 3) = %d, want clamp to 3", got)
	}
	if got := Jobs(0, 100); got < 1 {
		t.Fatalf("Jobs(0, 100) = %d, want >= 1", got)
	}
	if got := Jobs(-1, 0); got != 1 {
		t.Fatalf("Jobs(-1, 0) = %d, want 1", got)
	}
}

func TestMapOrderPreserved(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, jobs := range []int{1, 2, 8, 200} {
		out, err := Map(jobs, items, func(i, item int) (int, error) {
			return item * item, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("jobs=%d: out[%d] = %d, want %d", jobs, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(4, nil, func(i, item int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("Map on empty input: %v, %v", out, err)
	}
}

func TestMapFirstIndexError(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	wantErr := errors.New("boom 3")
	for _, jobs := range []int{1, 4, 8} {
		_, err := Map(jobs, items, func(i, item int) (int, error) {
			if item >= 3 {
				if item == 3 {
					return 0, wantErr
				}
				return 0, fmt.Errorf("boom %d", item)
			}
			return item, nil
		})
		if !errors.Is(err, wantErr) {
			t.Fatalf("jobs=%d: err = %v, want the smallest-index error %v", jobs, err, wantErr)
		}
	}
}

func TestMapRunsEverythingBeforeFailure(t *testing.T) {
	// Items before the earliest failure must always run (one of them
	// could fail with a smaller index); items after it may be skipped.
	var mu sync.Mutex
	ran := map[int]bool{}
	items := make([]int, 20)
	const failAt = 7
	_, err := Map(1, items, func(i, item int) (int, error) {
		mu.Lock()
		ran[i] = true
		mu.Unlock()
		if i == failAt {
			return 0, errors.New("failure")
		}
		return 0, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	for i := 0; i <= failAt; i++ {
		if !ran[i] {
			t.Fatalf("item %d before the failure did not run", i)
		}
	}
	// With one worker the skip is deterministic: nothing after failAt runs.
	for i := failAt + 1; i < len(items); i++ {
		if ran[i] {
			t.Fatalf("item %d after the failure ran despite single-worker skip", i)
		}
	}
}

func TestMapScopedFailureSkipsOnlyItsScope(t *testing.T) {
	// Even items are scope 0, odd ones scope 1. Item 2 fails and item 5
	// fails too: with one worker scope 0 stops after item 2, while scope
	// 1 runs up to its own failure at 5, and the error is item 2's.
	items := make([]int, 10)
	var ran []int
	_, err := MapScoped(1, items, 2, func(i int) int { return i % 2 }, func(i, _ int) (int, error) {
		ran = append(ran, i)
		if i == 2 || i == 5 {
			return 0, fmt.Errorf("boom %d", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "boom 2" {
		t.Fatalf("err = %v, want boom 2", err)
	}
	if want := []int{0, 1, 2, 3, 5}; fmt.Sprint(ran) != fmt.Sprint(want) {
		t.Fatalf("ran %v, want %v", ran, want)
	}
}
