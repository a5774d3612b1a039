// Package par provides the bounded-parallelism primitive behind the
// sweep engine's fixed and adaptive runners: a deterministic parallel map
// over a slice. Results come back in input order regardless of completion
// order, so callers that are themselves deterministic per item stay
// deterministic under any worker count — the property the determinism
// test suite pins down.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Jobs resolves a requested worker count: values <= 0 mean GOMAXPROCS, and
// the count is clamped to n so no idle goroutines are spawned.
func Jobs(jobs, n int) int {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > n {
		jobs = n
	}
	if jobs < 1 {
		jobs = 1
	}
	return jobs
}

// Map applies f to every item of items using at most jobs concurrent
// workers (jobs <= 0 means GOMAXPROCS) and returns the results in input
// order. If any call fails, Map reports the error of the smallest failing
// input index, so the reported failure does not depend on goroutine
// scheduling: every item before that index is guaranteed to run, while
// items after it may be skipped once the failure is observed (a long
// sweep does not burn its full wall-clock after an early error).
func Map[T, R any](jobs int, items []T, f func(i int, item T) (R, error)) ([]R, error) {
	return MapScoped(jobs, items, 1, func(int) int { return 0 }, f)
}

// MapScoped is Map over items that fall into independent scopes: item i
// belongs to scope(i), in [0, scopes). A failure skips only the later
// items of its own scope; the items of every other scope still run. Every
// item of a scope before that scope's smallest failing index runs, so
// which items fail, and so the error reported (that of the smallest
// failing index overall), does not depend on scheduling either.
func MapScoped[T, R any](jobs int, items []T, scopes int, scope func(i int) int, f func(i int, item T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	if len(items) == 0 {
		return out, nil
	}
	errs := make([]error, len(items))
	var next atomic.Int64
	firstErr := make([]atomic.Int64, scopes)
	for s := range firstErr {
		firstErr[s].Store(int64(len(items)))
	}

	var wg sync.WaitGroup
	for w := 0; w < Jobs(jobs, len(items)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				// Items beyond their scope's earliest observed failure are
				// dead work: their results would be discarded. Items before
				// it must still run — a smaller index could fail too and
				// its error is the one to report.
				first := &firstErr[scope(i)]
				if int64(i) > first.Load() {
					continue
				}
				out[i], errs[i] = f(i, items[i])
				if errs[i] != nil {
					for {
						cur := first.Load()
						if int64(i) >= cur || first.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
