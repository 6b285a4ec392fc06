package datalog

import (
	"runtime"
	"sync"
)

// fireBuffered fires every job against a read-only view of the store, at
// most workers at a time (0 = NumCPU), each collecting its heads locally;
// results[i] holds job i's heads in derivation order, so the caller's merge
// is deterministic however the jobs were scheduled.
func fireBuffered(jobs []job, workers int, fire func(job, func(Atom) error) error) ([][]Atom, error) {
	results := make([][]Atom, len(jobs))
	collect := func(i int) error {
		return fire(jobs[i], func(head Atom) error {
			results[i] = append(results[i], head)
			return nil
		})
	}
	if workers == 1 {
		for i := range jobs {
			if err := collect(i); err != nil {
				return nil, err
			}
		}
		return results, nil
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = collect(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
