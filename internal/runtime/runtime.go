// Package runtime is the host worker pool: a parallel-for that the graph
// executor uses to split a layer's output channels across threads along the
// filter-group boundaries FKR produces (the same mapping the paper uses for
// GPU thread blocks and CPU threads), plus the wall-clock measurement helper
// the command-line tools share.
package runtime

import (
	"runtime"
	"sync"
	"time"
)

// Pool is a fixed-size worker pool for data-parallel layer execution.
type Pool struct {
	workers int
}

// NewPool creates a pool with n workers (n<=0 selects GOMAXPROCS).
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: n}
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Limit returns a width-limited view of the pool: ParallelFor on the returned
// pool splits work across at most n workers (floored at 1, capped at the
// parent's width). The serving engine uses it to run batch-class sweeps on a
// slice of the machine while interactive sweeps keep the full width — sizing
// compute per scheduling class without a second pool's worth of bookkeeping.
func (p *Pool) Limit(n int) *Pool {
	if n > p.workers {
		n = p.workers
	}
	if n < 1 {
		n = 1
	}
	if n == p.workers {
		return p
	}
	return &Pool{workers: n}
}

// ParallelFor runs fn(chunk) for chunks [start,end) covering [0,n) split as
// evenly as possible across the workers. A panic inside fn is captured on the
// worker goroutine and re-raised on the calling goroutine after every worker
// has finished, so callers (and deferred recovers above them) observe it the
// same way they would a panic from a plain loop; if several chunks panic, the
// first one captured wins.
func (p *Pool) ParallelFor(n int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	w := p.workers
	if w > n {
		w = n
	}
	if w == 1 {
		fn(0, n)
		return
	}
	var (
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicVal  any
	)
	chunk := (n + w - 1) / w
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(s, e int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicVal = r })
				}
			}()
			fn(s, e)
		}(start, end)
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}

// Measure runs fn repeatedly and returns the average wall-clock milliseconds
// over runs (after one warmup).
func Measure(runs int, fn func()) float64 {
	if runs < 1 {
		runs = 1
	}
	fn() // warmup
	start := time.Now()
	for i := 0; i < runs; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / 1e6 / float64(runs)
}
