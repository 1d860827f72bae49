package simulate

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Options tunes how a sweep executes. The zero value is the default:
// fan grid cells out across GOMAXPROCS worker goroutines.
type Options struct {
	// Parallelism bounds the number of worker goroutines running grid
	// cells concurrently. 0 means GOMAXPROCS; 1 runs the sweep
	// sequentially on the calling goroutine.
	Parallelism int
}

func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach executes n independent cells, fanning them across a bounded
// worker pool. Each cell writes its result into a pre-sized slot
// identified by its index, so the output layout — and therefore every
// figure table — is identical regardless of scheduling. Cells must not
// share mutable state (sweep cells share only the read-only open
// sequence). The lowest-indexed error wins, matching the sequential
// early-exit order.
func ForEach(n int, opt Options, cell func(i int) error) error {
	workers := opt.workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := cell(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		mu      sync.Mutex
		firstI  = n
		firstE  error
		stopped atomic.Bool
	)
	fail := func(i int, err error) {
		mu.Lock()
		if err != nil && i < firstI {
			firstI, firstE = i, err
		}
		mu.Unlock()
		stopped.Store(true)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || stopped.Load() {
					return
				}
				if err := cell(i); err != nil {
					fail(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstE
}
